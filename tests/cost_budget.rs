//! The allocation gate: heap allocations and peak live bytes, counted by
//! a global allocator and compared with the checked-in budgets in
//! `crates/bench/snapshots/cost-budget.json`.
//!
//! Wall time on a shared host drifts by tens of percent; an allocation
//! count repeats exactly, so a change that makes the program do more work
//! fails here. The gate measures every registry artifact at `shards: 1`,
//! the Fig. 2 scan at two population sizes and the Fig. 5 replay at two
//! message counts. The scan's allocations per domain must agree across
//! its two sizes within 2 %, and the replay's marginal allocations per
//! message between its two sizes must agree with its average at the
//! larger within 2 %, which turns "cost per unit is flat" into checks.
//! Everything runs from one `#[test]`, so no other test's allocations mix
//! in.
//!
//! A value above its budget fails. A change that lowers a value lowers
//! its budget in the same change, by regenerating the file:
//!
//! ```sh
//! rm crates/bench/snapshots/cost-budget.json
//! SPAMWARD_COST_BUDGET=write cargo test -q --test cost_budget
//! SPAMWARD_COST_BUDGET=write cargo test -q --release --test cost_budget
//! ```
//!
//! Debug and release builds differ by a handful of allocations, so a
//! write keeps the larger of each measured value and the one already in
//! the file, and the file ends up with the larger of the two builds. One
//! artifact fans out over several workers whatever `shards` says
//! ([`FANNED_OUT`]); its count gets a little headroom and its peak is not
//! gated.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use spamward::core::experiments::deployment::{self, DeploymentConfig};
use spamward::core::experiments::nolisting_adoption::{self, AdoptionConfig};
use spamward::core::harness::{self, HarnessConfig, Obs};
use spamward::scanner::PopulationSpec;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The counting global allocator. Integration tests build with
/// `cfg(test)`, and lint rule C1 admits atomics in test code.
#[cfg(test)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

    /// Counts every allocation and reallocation, and tracks live and
    /// peak live bytes, in front of the system allocator — on the
    /// measuring thread and the threads started after it adopted itself
    /// (the runs' workers) only. The test harness's main thread keeps
    /// allocating for a moment after it starts the test (its bookkeeping
    /// and its wait for the result), at a time the scheduler picks, so
    /// its allocations never count.
    struct Counting;

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicI64 = AtomicI64::new(0);
    static PEAK: AtomicI64 = AtomicI64::new(0);
    /// Set once the measuring thread has adopted itself.
    static ADOPTED: AtomicBool = AtomicBool::new(false);

    thread_local! {
        /// Whether this thread's allocations count, fixed by its first
        /// allocation: threads that allocated before the measuring thread
        /// adopted itself are the harness's.
        static COUNTED: Cell<Option<bool>> = const { Cell::new(None) };
    }

    fn counted() -> bool {
        COUNTED
            .try_with(|counted| {
                let decided = counted.get().unwrap_or_else(|| ADOPTED.load(Relaxed));
                counted.set(Some(decided));
                decided
            })
            .unwrap_or(false)
    }

    fn grew(bytes: usize) {
        let bytes = bytes as i64;
        PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
    }

    fn shrank(bytes: usize) {
        LIVE.fetch_sub(bytes as i64, Relaxed);
    }

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged and only adds bookkeeping on the side.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwarded as received.
            let ptr = unsafe { System.alloc(layout) };
            if !ptr.is_null() && counted() {
                ALLOCS.fetch_add(1, Relaxed);
                grew(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwarded as received.
            let ptr = unsafe { System.alloc_zeroed(layout) };
            if !ptr.is_null() && counted() {
                ALLOCS.fetch_add(1, Relaxed);
                grew(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded as received.
            unsafe { System.dealloc(ptr, layout) };
            if counted() {
                shrank(layout.size());
            }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: forwarded as received.
            let moved = unsafe { System.realloc(ptr, layout, new_size) };
            if !moved.is_null() && counted() {
                ALLOCS.fetch_add(1, Relaxed);
                if new_size >= layout.size() {
                    grew(new_size - layout.size());
                } else {
                    shrank(layout.size() - new_size);
                }
            }
            moved
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Makes the calling thread the measuring thread: from now on it and
    /// every thread that first allocates after this call are counted.
    pub(crate) fn adopt_this_thread() {
        COUNTED.with(|counted| counted.set(Some(true)));
        ADOPTED.store(true, Relaxed);
    }

    /// Allocations so far and bytes live now; restarts the peak from the
    /// bytes live now.
    pub(crate) fn start() -> (u64, i64) {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        (ALLOCS.load(Relaxed), live)
    }

    /// Allocations made and the peak of live bytes above `live` since
    /// [`start`] returned `(allocs, live)`.
    pub(crate) fn since((allocs, live): (u64, i64)) -> (u64, u64) {
        let peak = u64::try_from(PEAK.load(Relaxed) - live).unwrap_or(0);
        (ALLOCS.load(Relaxed) - allocs, peak)
    }
}

/// What one measured run cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    /// Allocations plus reallocations.
    allocs: u64,
    /// The most bytes live at once above what was live before the run;
    /// `None` where the interleaving of workers decides it.
    peak_bytes: Option<u64>,
}

/// Registry artifacts that fan out over several workers whatever
/// `shards` says: variance sweeps its seeds four at a time. How many
/// items each worker takes varies run to run, and with it a few
/// reallocations of the workers' output vectors and the peak live bytes.
/// Their allocations get 0.1 % headroom; their peak is not gated.
const FANNED_OUT: &[&str] = &["registry.variance"];

/// Runs `f` and reports its cost; its output is dropped after the count.
fn measure<T>(f: impl FnOnce() -> T) -> Cost {
    let start = counting::start();
    let output = f();
    let (allocs, peak) = counting::since(start);
    drop(output);
    Cost { allocs, peak_bytes: Some(peak) }
}

/// How far apart the flatness checks let the allocations per unit at the
/// two sizes of a run be, as a share of the average at the larger size.
const FLATNESS: f64 = 0.02;

/// A run's allocations at two sizes, read as a fixed cost plus a marginal
/// cost per unit, to say how far off a failed flatness check is.
struct Flatness {
    /// Allocations per unit between the two sizes.
    marginal: f64,
    /// The fixed allocations the two sizes imply.
    fixed: f64,
    /// The larger size.
    large: f64,
}

impl Flatness {
    fn new([small, large]: [usize; 2], allocs: impl Fn(usize) -> f64) -> Flatness {
        let marginal = (allocs(large) - allocs(small)) / (large - small) as f64;
        Flatness { marginal, fixed: allocs(large) - marginal * large as f64, large: large as f64 }
    }

    /// The fixed cost, and the fixed costs at which a check passes that
    /// holds when |fixed| × `weight` is within [`FLATNESS`] of the average
    /// allocations per unit at the larger size.
    fn explain(&self, weight: f64) -> String {
        let slack = FLATNESS / self.large;
        let lowest = -FLATNESS * self.marginal / (weight + slack);
        let highest = FLATNESS * self.marginal / (weight - slack);
        format!("{:.0} fixed; passes at {lowest:.0} to {highest:.0} fixed", self.fixed)
    }
}

/// Fig. 2 scan sizes, in domains.
const SCAN_SIZES: [usize; 2] = [4_000, 20_000];
/// Fig. 5 replay sizes, in messages.
const REPLAY_SIZES: [usize; 2] = [500, 2_000];

fn scan(domains: usize) -> Cost {
    let config = AdoptionConfig {
        domains,
        workers: 1,
        spec: PopulationSpec::fig2(domains),
        ..AdoptionConfig::default()
    };
    measure(|| nolisting_adoption::run(&config, &mut Obs::default()))
}

fn replay(messages: usize) -> Cost {
    let config = DeploymentConfig { messages, workers: 1, ..DeploymentConfig::default() };
    measure(|| deployment::run(&config, &mut Obs::default()))
}

/// Every measured cost, in a fixed order, named as in the budget file.
fn measure_all() -> Vec<(String, Cost)> {
    let mut costs = Vec::new();
    let config = HarnessConfig { shards: 1, ..HarnessConfig::default() };
    for exp in harness::registry() {
        let name = format!("registry.{}", exp.id());
        let mut cost = measure(|| exp.run(&config).expect("unbudgeted run completes"));
        if FANNED_OUT.contains(&name.as_str()) {
            cost.peak_bytes = None;
        }
        costs.push((name, cost));
    }
    for domains in SCAN_SIZES {
        costs.push((format!("fig2_scan.{domains}"), scan(domains)));
    }
    for messages in REPLAY_SIZES {
        costs.push((format!("fig5_replay.{messages}"), replay(messages)));
    }
    costs
}

fn budget_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/bench/snapshots/cost-budget.json")
}

/// Renders the budget file: a header, then one entry per line.
fn render(costs: &[(String, Cost)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"regenerate\": \"rm crates/bench/snapshots/cost-budget.json && \
         SPAMWARD_COST_BUDGET=write cargo test -q --test cost_budget && \
         SPAMWARD_COST_BUDGET=write cargo test -q --release --test cost_budget\",\n",
    );
    out.push_str(
        "  \"about\": \"allocations plus reallocations, and peak live heap bytes, per run; \
         tests/cost_budget.rs fails on any value above its budget\",\n",
    );
    out.push_str("  \"budgets\": [\n");
    for (i, (name, cost)) in costs.iter().enumerate() {
        let comma = if i + 1 == costs.len() { "" } else { "," };
        let peak = cost.peak_bytes.map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "    {{\"name\": \"{name}\", \"allocs\": {}, \"peak_bytes\": {peak}}}{comma}",
            cost.allocs
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the entries [`render`] writes back.
fn parse(text: &str) -> Vec<(String, Cost)> {
    let field = |line: &str, key: &str| -> String {
        let rest = &line[line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
        rest.trim_start_matches('"').split(['"', ',', '}']).next().unwrap().to_owned()
    };
    text.lines()
        .filter(|line| line.trim_start().starts_with("{\"name\""))
        .map(|line| {
            let cost = Cost {
                allocs: field(line, "allocs").parse().unwrap(),
                peak_bytes: field(line, "peak_bytes").parse().ok(),
            };
            (field(line, "name"), cost)
        })
        .collect()
}

#[test]
fn allocations_and_peak_bytes_stay_within_budget() {
    counting::adopt_this_thread();
    let costs = measure_all();
    if std::env::var("SPAMWARD_COST_BUDGET").as_deref() == Ok("write") {
        // Keep the larger of the new value and the recorded one, so the
        // file holds the maximum over the builds it was regenerated in.
        let old = std::fs::read_to_string(budget_path()).map(|t| parse(&t)).unwrap_or_default();
        let merged: Vec<(String, Cost)> = costs
            .iter()
            .map(|(name, cost)| {
                let kept = old.iter().find(|(n, _)| n == name).map(|(_, c)| *c).unwrap_or(*cost);
                let cost = Cost {
                    allocs: cost.allocs.max(kept.allocs),
                    peak_bytes: cost.peak_bytes.map(|p| kept.peak_bytes.map_or(p, |k| p.max(k))),
                };
                (name.clone(), cost)
            })
            .collect();
        std::fs::write(budget_path(), render(&merged)).unwrap();
    }

    let budgets = parse(&std::fs::read_to_string(budget_path()).unwrap());
    let names = |list: &[(String, Cost)]| list.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&budgets), names(&costs), "the budget file lists every measured run");
    let over_budget = |name: &str, cost: &Cost, budget: &Cost| {
        let headroom = if FANNED_OUT.contains(&name) { budget.allocs / 1_000 } else { 0 };
        let peak_over = match (cost.peak_bytes, budget.peak_bytes) {
            (Some(peak), Some(limit)) => peak > limit,
            _ => false,
        };
        cost.allocs > budget.allocs + headroom || peak_over
    };
    let over: Vec<String> = costs
        .iter()
        .zip(&budgets)
        .filter(|((name, cost), (_, budget))| over_budget(name, cost, budget))
        .map(|((name, cost), (_, budget))| format!("{name}: {cost:?} over {budget:?}"))
        .collect();
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));

    let allocs = |name: String| {
        let (_, cost) = costs.iter().find(|(n, _)| *n == name).unwrap();
        cost.allocs as f64
    };
    // Cost per domain does not grow with the population: per domain, the
    // two sizes differ by |fixed| × (1/small - 1/large).
    let scan = |domains: usize| allocs(format!("fig2_scan.{domains}"));
    let per_domain = |domains: usize| scan(domains) / domains as f64;
    let (small, large) = (per_domain(SCAN_SIZES[0]), per_domain(SCAN_SIZES[1]));
    let flat = Flatness::new(SCAN_SIZES, scan);
    let weight = 1.0 / SCAN_SIZES[0] as f64 - 1.0 / SCAN_SIZES[1] as f64;
    assert!(
        (small - large).abs() <= FLATNESS * large,
        "allocations per domain {small:.2} at {} vs {large:.2} at {}: {:.3} per domain between \
         the sizes and {}",
        SCAN_SIZES[0],
        SCAN_SIZES[1],
        flat.marginal,
        flat.explain(weight)
    );
    // Nor does cost per message grow with the replay: the messages between
    // the two sizes cost what the average message of the larger one does,
    // which differs from them by |fixed| / large.
    let replay = |messages: usize| allocs(format!("fig5_replay.{messages}"));
    let [small, large] = REPLAY_SIZES;
    let marginal = (replay(large) - replay(small)) / (large - small) as f64;
    let average = replay(large) / large as f64;
    assert!(
        (marginal - average).abs() <= FLATNESS * average,
        "allocations per message {marginal:.2} between {small} and {large} vs {average:.2} at {large}: {}",
        Flatness::new(REPLAY_SIZES, replay).explain(1.0 / large as f64)
    );
}

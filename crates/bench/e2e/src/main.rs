//! `e2e` — the end-to-end benchmark of spamward.
//!
//! Generates each workload's inputs from `--seed`, drives the library
//! through its public entry points serially, checks the outputs, and
//! prints every metric as `<name> <value> <unit>` followed by one JSON
//! object on the last line of stdout:
//!
//! ```sh
//! cargo run --release --offline --manifest-path crates/bench/e2e/Cargo.toml -- \
//!     --workload deploy_10x --seed 1 --seconds 25 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer ones. See README.md for the
//! workloads, the metrics and what each layer metric should move.

mod args;
mod churn;
mod measure;
mod probes;
mod reference;
mod workloads;

use args::{Command, Opts};
use measure::{
    measure, median, nominal_s, peak_rss_mb, time_reference, Bench, Metric, Percentiles, SpanId,
    Spans, Stopwatch,
};
use spamward_mta::metrics::ENGINE_EVENTS;
use std::io::Write as _;
use workloads::Workload;

/// Set-ups an untraced run times; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;
/// Reference kernel runs timed on each side of a set-up.
const SETUP_REFERENCE_RUNS: usize = 3;
/// The glibc setting that caps the number of malloc arenas.
const ARENA_MAX: &str = "MALLOC_ARENA_MAX";

fn main() {
    // glibc hands a thread that allocates while another holds the main
    // arena an arena of its own, and which one the shard executor's worker
    // thread ends up using varies from run to run: it moved `peak_rss_mb`
    // by up to 1.5 MB (25% on `survey_300k`). With one arena for every
    // thread the peak repeats, so the benchmark runs itself again under
    // MALLOC_ARENA_MAX=1 unless the variable is already set.
    if std::env::var_os(ARENA_MAX).is_none() {
        std::process::exit(rerun_with_one_arena());
    }
    std::process::exit(run(std::env::args().skip(1)));
}

/// Runs this binary again, with the same arguments, under
/// MALLOC_ARENA_MAX=1, waits for it and returns its exit code.
fn rerun_with_one_arena() -> i32 {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(ARENA_MAX, "1")
            .status()
    });
    match status {
        Ok(status) => status.code().unwrap_or(1),
        Err(e) => {
            eprintln!("error: cannot run the e2e binary again: {e}");
            1
        }
    }
}

/// Runs the command line and returns the exit code: 0 when every check
/// passed, 1 when a correctness check failed, 2 on bad arguments.
fn run(args: impl IntoIterator<Item = String>) -> i32 {
    match args::parse(args) {
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", args::USAGE);
            2
        }
        Ok(Command::List) => {
            for w in Workload::ALL {
                println!("{:<16} {}", w.name(), w.why());
            }
            0
        }
        Ok(Command::All(opts)) => run_all(&opts),
        Ok(Command::Run(w, opts)) => run_workload(w, &opts),
    }
}

/// Runs every workload in turn, each in its own child process (so
/// `peak_rss_mb` is per workload and no two ever overlap), and returns
/// the worst exit code.
fn run_all(opts: &Opts) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the e2e binary: {e}");
            return 1;
        }
    };
    let mut worst = 0;
    for w in Workload::ALL {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", w.name(), "--seconds", &opts.seconds.to_string()]);
        child.args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(seed) = opts.seed {
            child.args(["--seed", &seed.to_string()]);
        }
        if opts.smoke {
            child.arg("--smoke");
        }
        println!("# workload {}", w.name());
        let _ = std::io::stdout().flush();
        let code = match child.status() {
            Ok(status) => status.code().unwrap_or(1),
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", w.name());
                1
            }
        };
        worst = worst.max(code);
    }
    worst
}

/// What a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn run_workload(w: Workload, opts: &Opts) -> i32 {
    let seed = opts.seed.map_or_else(|| "default".to_owned(), |s| s.to_string());
    let mut spans = Spans::new(Stopwatch::new(), opts.trace, &format!("{}/seed={seed}", w.name()));
    let root = spans.open("run", None);
    let result = execute(w, opts, &mut spans, root);
    spans.close(root);
    if let Some(path) = &opts.spans {
        if let Err(e) = std::fs::write(path, spans.to_jsonl()) {
            eprintln!("error: cannot write spans to {path:?}: {e}");
            return 1;
        }
    }
    match result {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for m in &outcome.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!("{}", to_json(&outcome));
            if outcome.correct {
                0
            } else {
                1
            }
        }
        Err(msg) => {
            eprintln!("error: {}: {msg}", w.name());
            1
        }
    }
}

/// Set-up, measuring and checks for one workload; the traced variant adds
/// the per-layer probes.
fn execute(
    w: Workload,
    opts: &Opts,
    spans: &mut Spans,
    root: Option<SpanId>,
) -> Result<Outcome, String> {
    let mut setups = SetupTimes::default();
    let mut bench = timed_setup(w, opts, spans, root, &mut setups)?;
    let budget_us = opts.seconds.saturating_mul(1_000_000);
    let mut notes = Vec::new();

    if !opts.trace {
        let m = measure(bench.as_mut(), &mut Spans::disabled(), None, budget_us);
        let verified = check(bench.verify(), &mut notes);
        let events = bench.tally().counter(ENGINE_EVENTS);
        // More set-ups, each dropped before the next, once the measured
        // one is gone: `setup_s` is their median, and no two workload
        // instances are ever alive together for `peak_rss_mb`.
        drop(bench);
        let samples = if opts.smoke { 1 } else { SETUP_SAMPLES };
        while setups.wall_s.len() < samples {
            drop(timed_setup(w, opts, spans, root, &mut setups)?);
        }
        let batch_ms: Vec<f64> = m.batch_us.iter().map(|us| us / 1e3).collect();
        let batches = Percentiles::of(&batch_ms);
        notes.push(format!(
            "{}: {} {} in {} batches over {:.3} s; {} set-ups",
            w.name(),
            m.work,
            w.unit(),
            batches.n,
            m.wall_us as f64 / 1e6,
            setups.wall_s.len()
        ));
        // The batch timings carry no bound: only `greylist_churn` runs
        // enough batches for a tail, and every end-to-end metric must exist
        // on every workload.
        let tail = batches.tail.map_or_else(String::new, |(pct, ms)| format!(", p{pct} {ms} ms"));
        notes.push(format!("batch p50 {} ms{tail} (n={})", batches.p50, batches.n));
        // Wall-clock times drift with the host; the metrics are stated in
        // nominal seconds, measured against the reference kernel.
        let reference_ms: Vec<f64> = m.reference_us.iter().map(|&us| us as f64 / 1e3).collect();
        notes.push(format!(
            "wall-clock: throughput {} {} per s, set-up median {} s; reference kernel median {} \
             ms (n={})",
            m.throughput(),
            w.unit(),
            median(&setups.wall_s),
            median(&reference_ms),
            reference_ms.len()
        ));
        if events > 0 {
            notes.push(format!("engine events per s {}", events as f64 * 1e6 / m.wall_us as f64));
        }
        return Ok(Outcome {
            metrics: vec![
                Metric::new("setup_s", median(&setups.nominal_s), "s"),
                Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
                Metric::new("throughput_per_s", m.nominal_throughput(), "1/s"),
            ],
            notes,
            attempted: m.work,
            failed: m.failed,
            correct: m.failed == 0 && verified,
        });
    }

    // Traced: half the budget untraced, then half traced on a fresh
    // set-up, so the difference between the halves is the tracing
    // overhead. Layer shares use the traced half only.
    let untraced = measure(bench.as_mut(), &mut Spans::disabled(), None, budget_us / 2);
    let mut verified = check(bench.verify(), &mut notes);
    drop(bench);
    let mut bench = timed_setup(w, opts, spans, root, &mut setups)?;
    let span = spans.open("measure", root);
    let traced = measure(bench.as_mut(), spans, span, budget_us / 2);
    spans.close(span);
    let span = spans.open("verify", root);
    verified &= check(bench.verify(), &mut notes);
    spans.close(span);
    let span = spans.open("probes", root);
    let probed = probes::run(opts.seed, opts.smoke, spans, span)?;
    spans.close(span);
    let tally = bench.tally();
    notes.push(format!(
        "tracing overhead: {} {} per nominal s traced vs {} untraced ({:+.2}%)",
        traced.nominal_throughput(),
        w.unit(),
        untraced.nominal_throughput(),
        (untraced.nominal_throughput() / traced.nominal_throughput() - 1.0) * 100.0
    ));
    notes.push(format!("{} spans recorded", spans.len()));
    Ok(Outcome {
        metrics: probes::layer_metrics(w, &probed, &tally, &traced),
        notes,
        attempted: untraced.work + traced.work,
        failed: untraced.failed + traced.failed,
        correct: untraced.failed + traced.failed == 0 && verified,
    })
}

/// The times of a run's set-ups.
#[derive(Default)]
struct SetupTimes {
    /// Wall-clock seconds.
    wall_s: Vec<f64>,
    /// Nominal seconds, at the median of the reference kernel runs timed
    /// on either side of the set-up.
    nominal_s: Vec<f64>,
}

/// Runs one set-up of `w` under a span and records its time.
fn timed_setup(
    w: Workload,
    opts: &Opts,
    spans: &mut Spans,
    parent: Option<SpanId>,
    times: &mut SetupTimes,
) -> Result<Box<dyn Bench>, String> {
    let clock = spans.clock();
    let mut reference = time_reference(clock, SETUP_REFERENCE_RUNS);
    let span = spans.open("setup", parent);
    let start = clock.now_us();
    let bench = workloads::setup(w, opts.seed, opts.smoke)?;
    let wall_us = clock.now_us() - start;
    spans.close(span);
    reference.extend(time_reference(clock, SETUP_REFERENCE_RUNS));
    let reference_us: Vec<f64> = reference.iter().map(|&us| us as f64).collect();
    times.wall_s.push(wall_us as f64 / 1e6);
    times.nominal_s.push(nominal_s(wall_us, median(&reference_us)));
    Ok(bench)
}

/// Notes a failed post-run check; true when it passed.
fn check(result: Result<(), String>, notes: &mut Vec<String>) -> bool {
    match result {
        Ok(()) => true,
        Err(msg) => {
            eprintln!("check failed: {msg}");
            notes.push(format!("check failed: {msg}"));
            false
        }
    }
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
fn to_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: Workload, trace: bool) -> Outcome {
        let opts = Opts { seed: None, seconds: 0, trace, spans: None, smoke: true };
        let mut spans = Spans::new(Stopwatch::new(), trace, "test");
        let root = spans.open("run", None);
        execute(w, &opts, &mut spans, root).unwrap()
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for w in Workload::ALL {
            let outcome = smoke(w, false);
            assert!(outcome.correct, "{}: {:?}", w.name(), outcome.notes);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, ["setup_s", "peak_rss_mb", "throughput_per_s"]);
            assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{:?}", outcome.metrics);
        }
    }

    #[test]
    fn traced_smoke_run_attributes_every_share() {
        let outcome = smoke(Workload::Deploy, true);
        assert!(outcome.correct, "{:?}", outcome.notes);
        let value =
            |name: &str| outcome.metrics.iter().find(|m| m.name == name).map(|m| m.value).unwrap();
        assert!(value("layer.mta.drain.ns") > 0.0);
        assert!(value("layer.sim.event.calls") > 0.0);
        assert_eq!(value("layer.scanner.owns.calls"), 0.0, "deploy never scans");
        let shares: f64 =
            outcome.metrics.iter().filter(|m| m.name.ends_with(".share")).map(|m| m.value).sum();
        assert!((shares - 1.0).abs() < 1e-9, "attributed + unattributed = {shares}");
        let names: std::collections::BTreeSet<&str> =
            outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), outcome.metrics.len(), "metric names are unique");
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let outcome = Outcome {
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
            notes: Vec::new(),
            attempted: 3,
            failed: 0,
            correct: true,
        };
        assert_eq!(
            to_json(&outcome),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}

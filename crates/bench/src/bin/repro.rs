//! Regenerates every table and figure of the paper, driven by the
//! experiment registry in [`spamward_core::harness`].
//!
//! ```sh
//! cargo run --release -p spamward-bench --bin repro -- --list
//! cargo run --release -p spamward-bench --bin repro -- table3
//! cargo run --release -p spamward-bench --bin repro -- fig3 --csv
//! cargo run --release -p spamward-bench --bin repro -- all --jobs 4
//! cargo run --release -p spamward-bench --bin repro -- all --json --metrics
//! cargo run --release -p spamward-bench --bin repro -- table2 --trace smtp
//! ```
//!
//! `all --jobs N` fans the registry across a worker pool; because every
//! experiment is a pure function of its [`HarnessConfig`] and each report
//! is rendered independently before being printed in registry order, the
//! bytes are identical to a serial run. `--metrics` appends the full
//! metric dump to text/CSV reports (JSON always embeds it); `--trace
//! PREFIXES` turns event tracing on and prints the trace lines matching
//! any of the comma-separated category prefixes to stderr, leaving stdout
//! untouched.
//!
//! Telemetry exports (single artifact only, all deterministic): `--timeseries
//! FILE` samples counters in virtual time and writes the series CSV,
//! `--timeline FILE` turns event tracing on and writes per-message
//! lifecycles as Chrome trace-event JSON (open in Perfetto), `--export
//! openmetrics` prints the metric registry as an OpenMetrics exposition
//! instead of a report, and `--profile` prints a per-shard / per-actor
//! breakdown plus wall-clock to stderr. An export the artifact leaves
//! empty is an error (exit 1), not an empty file.

use spamward_core::harness::{self, HarnessConfig, Scale};
use spamward_obs::MetricValue;
use spamward_sim::shard::run_partitioned;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Csv,
    Json,
}

fn usage_text() -> String {
    let ids: Vec<&str> = harness::registry().iter().map(|e| e.id()).collect();
    format!(
        "usage: repro <artifact> [--csv | --json] [--seed N] [--jobs N] [--shards N] [--metrics] [--trace PREFIXES]\n\
         \x20      repro <artifact> [--timeseries FILE] [--timeline FILE] [--export openmetrics] [--profile]\n\
         \x20      repro all [--csv | --json] [--seed N] [--jobs N] [--shards N] [--metrics] [--trace PREFIXES]\n\
         \x20      repro --list\n\
         \n\
         artifacts: {} all\n\
         \n\
         --list          print the experiment registry and exit\n\
         --csv           print the report(s) in canonical CSV instead of text\n\
         --json          print the report(s) in canonical JSON instead of text\n\
         --seed N        override the default seed of seedable artifacts\n\
         --jobs N        run across N worker threads (byte-identical to serial)\n\
         --shards N      run sharded experiments N shards at a time; their\n\
         \x20               partition is fixed, so output bytes are identical\n\
         \x20               for every N\n\
         --budget N      cap every world a run drives at N engine events (a\n\
         \x20               sharded run spends up to N per shard world); an\n\
         \x20               exhausted budget is a typed failure (exit 1),\n\
         \x20               never a truncated report\n\
         --metrics       append the full metric dump to text/CSV reports\n\
         \x20               (JSON always embeds the metrics section)\n\
         --trace PREFIXES  run with event tracing and print trace lines whose\n\
         \x20               dotted category starts with any of the\n\
         \x20               comma-separated prefixes to stderr (\"\" matches\n\
         \x20               every category)\n\
         --timeseries FILE  sample telemetry once per virtual minute and\n\
         \x20               write the series CSV to FILE (single artifact;\n\
         \x20               bytes are invariant under --jobs/--shards; fig2\n\
         \x20               and table2 record series, others exit 1)\n\
         --timeline FILE  run with event tracing and write the per-message\n\
         \x20               lifecycle tracks as Chrome trace-event JSON to\n\
         \x20               FILE (single artifact; open in Perfetto; table2\n\
         \x20               records tracks, others exit 1)\n\
         --export openmetrics  print the metric registry as an OpenMetrics\n\
         \x20               exposition instead of a report (single artifact)\n\
         --profile       print a per-shard / per-actor virtual-time\n\
         \x20               breakdown plus wall-clock to stderr (single\n\
         \x20               artifact; stdout is untouched)",
        ids.join(" ")
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage_text());
    std::process::exit(2);
}

fn render(report: &harness::Report, format: Format, metrics: bool) -> String {
    match format {
        Format::Text if metrics => report.to_text_with_metrics(),
        Format::Text => report.to_text(),
        Format::Csv if metrics => report.to_csv_with_metrics(),
        Format::Csv => report.to_csv(),
        // JSON always embeds the canonical metrics section.
        Format::Json => report.to_json(),
    }
}

/// True when a rendered trace line's dotted category starts with any of
/// the comma-separated `prefixes` (so `--trace smtp,dns` selects both
/// streams). Lines render as `[<time>] <category>: <detail>`.
fn trace_line_matches(line: &str, prefixes: &str) -> bool {
    line.split_once("] ")
        .and_then(|(_, rest)| rest.split_once(": "))
        .is_some_and(|(category, _)| prefixes.split(',').any(|p| category.starts_with(p)))
}

/// Writes a telemetry export, failing loudly: a requested export that
/// cannot be written is an error, never a silently missing file.
fn write_export(path: &str, what: &str, bytes: &str) {
    if let Err(err) = std::fs::write(path, bytes) {
        eprintln!("error: cannot write {what} to {path:?}: {err}");
        std::process::exit(1);
    }
}

/// Renders the `--profile` stderr block: per-shard engine event counts,
/// per-actor episode histograms and episode outcomes, all in virtual
/// time. The caller appends the wall-clock line — the only part of the
/// breakdown that is not a pure function of (seed, config).
fn profile_text(report: &harness::Report) -> String {
    use std::fmt::Write as _;
    let mut out = format!("-- profile [{}] --\n", report.id());
    let metrics = report.metrics();
    for (name, value) in metrics.iter() {
        if let (Some(rest), MetricValue::Counter(events)) =
            (name.strip_prefix(spamward_mta::metrics::ENGINE_SHARD_PREFIX), value)
        {
            let shard = rest.strip_suffix(".events").unwrap_or(rest);
            let _ = writeln!(out, "shard {shard}: {events} engine events");
        }
    }
    for (name, value) in metrics.iter() {
        if let (Some(actor), MetricValue::Histogram(h)) =
            (name.strip_prefix(spamward_mta::metrics::ENGINE_EPISODE_EVENTS_PREFIX), value)
        {
            let _ = writeln!(
                out,
                "actor {actor}: {} episode(s), {} engine event(s)",
                h.count(),
                h.sum()
            );
        }
    }
    for (phase, metric) in [
        ("drained", spamward_mta::metrics::ENGINE_OUTCOME_DRAINED),
        ("horizon reached", spamward_mta::metrics::ENGINE_OUTCOME_HORIZON),
        ("budget exhausted", spamward_mta::metrics::ENGINE_OUTCOME_BUDGET_EXHAUSTED),
        ("stopped", spamward_mta::metrics::ENGINE_OUTCOME_STOPPED),
    ] {
        if let Some(n) = metrics.counter(metric) {
            let _ = writeln!(out, "episodes {phase}: {n}");
        }
    }
    out
}

/// Joins per-experiment renderings into the final output: a JSON array for
/// `--json`, blank-line-separated blocks otherwise.
fn join_reports(bodies: &[String], format: Format) -> String {
    match format {
        Format::Json => format!("[{}]\n", bodies.join(",")),
        Format::Text | Format::Csv => bodies.join("\n"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact: Option<String> = None;
    let mut list = false;
    let mut csv = false;
    let mut json = false;
    let mut seed: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut budget: Option<u64> = None;
    let mut metrics = false;
    let mut trace: Option<String> = None;
    let mut timeseries: Option<String> = None;
    let mut timeline: Option<String> = None;
    let mut export = false;
    let mut profile = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--csv" => csv = true,
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--profile" => profile = true,
            "--trace" => {
                let value =
                    it.next().unwrap_or_else(|| fail("--trace needs a category prefix value"));
                trace = Some(value.to_owned());
            }
            "--timeseries" => {
                let value = it.next().unwrap_or_else(|| fail("--timeseries needs a file path"));
                timeseries = Some(value.to_owned());
            }
            "--timeline" => {
                let value = it.next().unwrap_or_else(|| fail("--timeline needs a file path"));
                timeline = Some(value.to_owned());
            }
            "--export" => {
                let value = it.next().unwrap_or_else(|| fail("--export needs a format value"));
                if value != "openmetrics" {
                    fail(&format!("--export supports only \"openmetrics\", got {value:?}"));
                }
                export = true;
            }
            "--seed" => {
                let value = it.next().unwrap_or_else(|| fail("--seed needs a value"));
                seed = Some(value.parse().unwrap_or_else(|_| {
                    fail(&format!("--seed needs an unsigned integer, got {value:?}"))
                }));
            }
            "--jobs" => {
                let value = it.next().unwrap_or_else(|| fail("--jobs needs a value"));
                let n: usize = value.parse().unwrap_or_else(|_| {
                    fail(&format!("--jobs needs a positive integer, got {value:?}"))
                });
                if n == 0 {
                    fail("--jobs needs at least one worker");
                }
                jobs = Some(n);
            }
            "--shards" => {
                let value = it.next().unwrap_or_else(|| fail("--shards needs a value"));
                let n: usize = value.parse().unwrap_or_else(|_| {
                    fail(&format!("--shards needs a positive integer, got {value:?}"))
                });
                if n == 0 {
                    fail("--shards needs at least one shard worker");
                }
                shards = Some(n);
            }
            "--budget" => {
                let value = it.next().unwrap_or_else(|| fail("--budget needs a value"));
                let n: u64 = value.parse().unwrap_or_else(|_| {
                    fail(&format!("--budget needs a positive integer, got {value:?}"))
                });
                if n == 0 {
                    fail("--budget needs at least one engine event");
                }
                budget = Some(n);
            }
            flag if flag.starts_with('-') => fail(&format!("unknown flag {flag:?}")),
            name => {
                if let Some(first) = &artifact {
                    fail(&format!("unexpected extra argument {name:?} after {first:?}"));
                }
                artifact = Some(name.to_owned());
            }
        }
    }

    if list {
        if artifact.is_some()
            || seed.is_some()
            || jobs.is_some()
            || shards.is_some()
            || budget.is_some()
            || csv
            || json
            || metrics
            || trace.is_some()
            || timeseries.is_some()
            || timeline.is_some()
            || export
            || profile
        {
            fail("--list takes no other arguments");
        }
        print!("{}", harness::list_text());
        return;
    }
    if csv && json {
        fail("choose one of --csv / --json");
    }
    if export && (csv || json) {
        fail("--export openmetrics replaces the report body; drop --csv / --json");
    }
    let format = if json {
        Format::Json
    } else if csv {
        Format::Csv
    } else {
        Format::Text
    };
    let Some(artifact) = artifact else { fail("missing artifact") };
    if artifact == "all" && (timeseries.is_some() || timeline.is_some() || export || profile) {
        fail(
            "--timeseries / --timeline / --export / --profile need a single artifact, not \"all\"",
        );
    }
    // --timeline renders the same event record --trace prints, so either
    // one turns tracing on.
    let config = HarnessConfig {
        seed,
        scale: Scale::Paper,
        trace: trace.is_some() || timeline.is_some(),
        event_budget: budget,
        shards: shards.unwrap_or(0),
        sample_interval: timeseries.is_some().then_some(harness::DEFAULT_SAMPLE_INTERVAL),
    };

    // Each worker returns (rendered report, filtered trace lines) or the
    // experiment's typed error; stdout and stderr are both emitted in
    // registry order after every run finishes, so the bytes are invariant
    // under --jobs and a failure never interleaves with partial output.
    let run_one = |exp: &dyn harness::Experiment| -> Result<(String, Vec<String>), String> {
        let report = exp.run(&config).map_err(|err| err.to_string())?;
        let trace_lines = match &trace {
            Some(prefix) => report
                .trace_lines()
                .iter()
                .filter(|line| trace_line_matches(line, prefix))
                .cloned()
                .collect(),
            None => Vec::new(),
        };
        Ok((render(&report, format, metrics), trace_lines))
    };

    // The first failure in registry order goes to stderr and the exit code
    // is 1; reports print only when *every* experiment succeeded.
    let check = |runs: Vec<Result<(String, Vec<String>), String>>| -> Vec<(String, Vec<String>)> {
        if let Some(err) = runs.iter().find_map(|r| r.as_ref().err()) {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
        runs.into_iter().map(|r| r.expect("errors handled above")).collect()
    };

    if artifact == "all" {
        let runs = run_partitioned(harness::registry().to_vec(), jobs.unwrap_or(1), run_one);
        let (bodies, traces): (Vec<String>, Vec<Vec<String>>) = check(runs).into_iter().unzip();
        print!("{}", join_reports(&bodies, format));
        for line in traces.iter().flatten() {
            eprintln!("{line}");
        }
    } else {
        let Some(exp) = harness::find(&artifact) else {
            fail(&format!("unknown artifact {artifact:?}"));
        };
        if seed.is_some() && !exp.seedable() {
            fail(&format!(
                "artifact {artifact:?} is not seedable; its output is fixed catalogue data"
            ));
        }
        // --jobs is accepted here too (the CI chaos smoke compares serial
        // vs --jobs bytes on one artifact); a single run has nothing to
        // parallelize. The single-artifact path keeps the report itself so
        // the telemetry exports can read it after rendering.
        // The sanctioned host-clock boundary (lint rule D1): wall time is
        // --profile stderr diagnostics only, never part of the outputs.
        let wall = spamward_sim::wall::WallClock::new();
        let report = match exp.run(&config) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(1);
            }
        };
        let elapsed = spamward_sim::wall::Clock::now(&wall);
        let trace_lines: Vec<&String> = match &trace {
            Some(prefixes) => report
                .trace_lines()
                .iter()
                .filter(|line| trace_line_matches(line, prefixes))
                .collect(),
            None => Vec::new(),
        };
        // An export this artifact left empty fails before anything is
        // written or printed.
        if timeseries.is_some() && report.timeseries().is_empty() {
            eprintln!("error: {artifact} records no timeseries points");
            std::process::exit(1);
        }
        if timeline.is_some() && report.timeline().is_empty() {
            eprintln!("error: {artifact} records no timeline events");
            std::process::exit(1);
        }
        if let Some(path) = &timeseries {
            write_export(path, "timeseries CSV", &report.timeseries().to_csv());
        }
        if let Some(path) = &timeline {
            let mut body = report.timeline().to_chrome_trace();
            body.push('\n');
            write_export(path, "timeline trace", &body);
        }
        if export {
            // The OpenMetrics exposition replaces the report body; its
            // rendering already ends with the mandatory `# EOF` line.
            print!("{}", spamward_obs::to_openmetrics(report.metrics()));
        } else {
            let body = render(&report, format, metrics);
            if format == Format::Json {
                println!("{body}");
            } else {
                print!("{body}");
            }
        }
        for line in &trace_lines {
            eprintln!("{line}");
        }
        if profile {
            eprint!("{}", profile_text(&report));
            eprintln!("wall-clock: {:.3}s", elapsed.as_micros() as f64 / 1e6);
        }
    }
}

//! CLI contract of the `repro` binary: failure paths must exit nonzero
//! with the typed error on stderr, and flag validation must stay stable.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn exhausted_budget_exits_one_with_typed_error_on_stderr() {
    let out = repro().args(["table2", "--budget", "1"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(1), "a failed experiment must exit 1");
    assert!(out.stdout.is_empty(), "no partial report on failure");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.starts_with("error: experiment table2: event budget exhausted"),
        "stderr must carry the typed HarnessError, got: {stderr:?}"
    );
    assert!(stderr.contains("engine events"), "error must state the event count: {stderr:?}");
}

#[test]
fn exhausted_budget_under_all_reports_first_failure_in_registry_order() {
    // With a one-event budget every world-driven experiment fails; the
    // CLI must surface the *first* one in registry order, exactly once.
    let out = repro().args(["all", "--budget", "1", "--jobs", "2"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no partial output when any experiment fails");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(stderr.lines().count(), 1, "exactly one error line: {stderr:?}");
    assert!(stderr.starts_with("error: experiment table2:"), "first failing id: {stderr:?}");
}

#[test]
fn generous_budget_changes_nothing() {
    let ok = repro().args(["table2", "--json"]).output().expect("repro runs");
    let budgeted =
        repro().args(["table2", "--json", "--budget", "100000000"]).output().expect("repro runs");
    assert_eq!(ok.status.code(), Some(0));
    assert_eq!(budgeted.status.code(), Some(0));
    assert_eq!(ok.stdout, budgeted.stdout, "an unexhausted budget must not perturb bytes");
}

#[test]
fn single_artifact_accepts_jobs_and_matches_serial_bytes() {
    let serial = repro().args(["resilience", "--json", "--metrics"]).output().expect("repro runs");
    let parallel = repro()
        .args(["resilience", "--json", "--metrics", "--jobs", "4"])
        .output()
        .expect("repro runs");
    assert_eq!(serial.status.code(), Some(0));
    assert_eq!(parallel.status.code(), Some(0));
    assert_eq!(serial.stdout, parallel.stdout, "--jobs must be byte-invariant");
}

#[test]
fn flag_validation_still_exits_two() {
    let out = repro().args(["table2", "--budget", "0"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "usage errors keep exit code 2");
    let out = repro().args(["--budget", "nope", "table2"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let out = repro().args(["nonsense-artifact"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn shards_flag_validation_exits_two() {
    let out = repro().args(["fig2", "--shards", "0"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "--shards 0 is a usage error");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.starts_with("error: --shards needs at least one shard worker"), "{stderr:?}");

    let out = repro().args(["fig2", "--shards", "four"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "non-numeric --shards is a usage error");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.starts_with("error: --shards needs a positive integer"), "{stderr:?}");

    let out = repro().args(["fig2", "--shards"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "valueless --shards is a usage error");
}

#[test]
fn trace_accepts_comma_separated_prefixes() {
    let both = repro().args(["table2", "--trace", "smtp,dns"]).output().expect("repro runs");
    assert_eq!(both.status.code(), Some(0));
    let stderr = String::from_utf8(both.stderr).expect("utf-8 stderr");
    assert!(stderr.lines().any(|l| l.contains("] smtp")), "smtp lines selected: {stderr:?}");
    assert!(stderr.lines().any(|l| l.contains("] dns")), "dns lines selected: {stderr:?}");
    // The union never selects fewer lines than either prefix alone.
    let smtp_only = repro().args(["table2", "--trace", "smtp"]).output().expect("repro runs");
    let smtp_lines = String::from_utf8(smtp_only.stderr).expect("utf-8 stderr").lines().count();
    assert!(stderr.lines().count() > smtp_lines, "comma union must add the dns stream");
}

#[test]
fn telemetry_flag_validation_exits_two() {
    // Missing values are usage errors.
    let out = repro().args(["table2", "--timeseries"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "valueless --timeseries is a usage error");
    let out = repro().args(["table2", "--timeline"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "valueless --timeline is a usage error");
    // --export only knows the OpenMetrics exposition.
    let out = repro().args(["table2", "--export", "prometheus"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "unknown --export format is a usage error");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.starts_with("error: --export supports only \"openmetrics\""), "{stderr:?}");
    // The exposition replaces the body, so a second format is a conflict.
    let out =
        repro().args(["table2", "--export", "openmetrics", "--json"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "--export with --json is a usage error");
    // Telemetry exports are single-artifact.
    for flags in [
        &["all", "--timeseries", "/dev/null"][..],
        &["all", "--timeline", "/dev/null"][..],
        &["all", "--export", "openmetrics"][..],
        &["all", "--profile"][..],
    ] {
        let out = repro().args(flags).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{flags:?} must be a usage error");
    }
}

#[test]
fn export_openmetrics_prints_an_exposition() {
    let out = repro().args(["table2", "--export", "openmetrics"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(0));
    let body = String::from_utf8(out.stdout).expect("utf-8 exposition");
    assert!(body.starts_with("# TYPE "), "exposition starts with a TYPE line: {body:?}");
    assert!(body.ends_with("# EOF\n"), "exposition ends with the mandatory EOF");
    assert!(body.contains("sim_engine_events_total "), "engine counter family present");
}

#[test]
fn timeseries_and_timeline_exports_are_shard_invariant_files() {
    let dir = std::env::temp_dir();
    let stem = format!("repro-cli-{}", std::process::id());
    let path = |name: &str| dir.join(format!("{stem}-{name}")).display().to_string();

    let mut outputs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for shards in ["1", "4"] {
        let ts = path(&format!("ts-{shards}.csv"));
        let tl = path(&format!("tl-{shards}.json"));
        let out = repro()
            .args(["table2", "--timeseries", &ts, "--timeline", &tl, "--shards", shards])
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(0));
        let ts_bytes = std::fs::read(&ts).expect("timeseries file written");
        let tl_bytes = std::fs::read(&tl).expect("timeline file written");
        std::fs::remove_file(&ts).ok();
        std::fs::remove_file(&tl).ok();
        outputs.push((ts_bytes, tl_bytes));
    }
    assert_eq!(outputs[0].0, outputs[1].0, "--timeseries bytes must not depend on --shards");
    assert_eq!(outputs[0].1, outputs[1].1, "--timeline bytes must not depend on --shards");

    let ts = String::from_utf8(outputs[0].0.clone()).expect("utf-8 series CSV");
    assert!(ts.starts_with("series,t_us,value\n"), "pinned CSV header: {ts:?}");
    let tl = String::from_utf8(outputs[0].1.clone()).expect("utf-8 trace JSON");
    assert!(tl.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), "{tl:?}");
    assert!(tl.ends_with("]}\n"), "trace file ends with a newline: {tl:?}");
}

#[test]
fn an_export_the_artifact_leaves_empty_is_an_error() {
    let dir = std::env::temp_dir();
    let stem = format!("repro-cli-empty-{}", std::process::id());
    // fig5 samples no series; fig2 renders no timeline tracks.
    for (artifact, flag, what) in
        [("fig5", "--timeseries", "timeseries points"), ("fig2", "--timeline", "timeline events")]
    {
        let path = dir.join(format!("{stem}-{artifact}")).display().to_string();
        let out = repro().args([artifact, flag, &path]).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(1), "{artifact} {flag}: an empty export fails");
        assert!(out.stdout.is_empty(), "{artifact} {flag}: no report is printed");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(stderr, format!("error: {artifact} records no {what}\n"));
        assert!(!std::path::Path::new(&path).exists(), "{artifact} {flag}: no file is written");
    }
    // fig2 does sample a series, so its --timeseries export still writes.
    let path = dir.join(format!("{stem}-fig2.csv")).display().to_string();
    let out = repro().args(["fig2", "--timeseries", &path]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(0));
    let csv = std::fs::read_to_string(&path).expect("timeseries file written");
    std::fs::remove_file(&path).ok();
    assert!(csv.starts_with("series,t_us,value\nobs.sample."), "points follow the header");
}

#[test]
fn profile_goes_to_stderr_and_leaves_stdout_canonical() {
    let plain = repro().args(["table2", "--json"]).output().expect("repro runs");
    let profiled = repro().args(["table2", "--json", "--profile"]).output().expect("repro runs");
    assert_eq!(profiled.status.code(), Some(0));
    assert_eq!(plain.stdout, profiled.stdout, "--profile must not perturb stdout bytes");
    let stderr = String::from_utf8(profiled.stderr).expect("utf-8 stderr");
    assert!(stderr.starts_with("-- profile [table2] --\n"), "{stderr:?}");
    assert!(stderr.contains("shard 0: "), "per-shard breakdown present: {stderr:?}");
    assert!(stderr.contains("episodes drained: "), "per-phase outcomes present: {stderr:?}");
    assert!(stderr.contains("wall-clock: "), "wall-clock confined to stderr: {stderr:?}");
}

#[test]
fn shards_are_byte_invariant_on_a_sharded_artifact() {
    let serial = repro()
        .args(["fig2", "--json", "--metrics", "--shards", "1"])
        .output()
        .expect("repro runs");
    let sharded = repro()
        .args(["fig2", "--json", "--metrics", "--shards", "4"])
        .output()
        .expect("repro runs");
    assert_eq!(serial.status.code(), Some(0));
    assert_eq!(sharded.status.code(), Some(0));
    assert_eq!(serial.stdout, sharded.stdout, "--shards must be byte-invariant");
    let body = String::from_utf8(sharded.stdout).expect("utf-8 report");
    assert!(body.contains("sim.engine.shard.0.events"), "per-shard metrics must be present");
    assert!(body.contains("sim.engine.shard.7.events"), "all fixed shards must be recorded");
}

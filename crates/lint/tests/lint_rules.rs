//! Tier-1 integration tests for spamward-lint.
//!
//! Each rule is exercised against checked-in fixtures (one true positive
//! and one true negative per rule), the allowlist round-trips through its
//! parser, the binary's exit codes are verified end to end, and — the
//! gate this crate exists for — the workspace itself must lint clean.

use spamward_lint::{rules, walk, Allowlist, Diagnostic};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Lints a fixture as if it lived at `rel_path` in the workspace.
fn diags(rel_path: &str, name: &str) -> Vec<Diagnostic> {
    rules::check_file(rel_path, &fixture(name))
}

fn rules_hit(rel_path: &str, name: &str) -> Vec<&'static str> {
    let mut hit: Vec<&'static str> = diags(rel_path, name).into_iter().map(|d| d.rule).collect();
    hit.dedup();
    hit
}

// Scope choices: D1/D2 apply everywhere, so fixtures are placed in an
// arbitrary product crate; D3 needs a determinism-scoped crate; P1 needs a
// protocol-path crate; P2 applies outside crates/smtp/src/reply.rs.

#[test]
fn d1_fixture_pair() {
    assert_eq!(rules_hit("crates/mta/src/fixture.rs", "d1_violation.rs"), vec!["D1"]);
    assert!(diags("crates/mta/src/fixture.rs", "d1_clean.rs").is_empty());
    // The sanctioned wall-clock module is exempt by construction.
    assert!(diags("crates/sim/src/wall.rs", "d1_violation.rs").is_empty());
}

#[test]
fn d2_fixture_pair() {
    assert_eq!(rules_hit("crates/botnet/src/fixture.rs", "d2_violation.rs"), vec!["D2"]);
    assert!(diags("crates/botnet/src/fixture.rs", "d2_clean.rs").is_empty());
}

#[test]
fn d3_fixture_pair() {
    let hits = diags("crates/greylist/src/fixture.rs", "d3_violation.rs");
    assert!(hits.iter().all(|d| d.rule == "D3"), "{hits:?}");
    assert_eq!(hits.len(), 2, "both the map drain and the set peek: {hits:?}");
    assert!(diags("crates/greylist/src/fixture.rs", "d3_clean.rs").is_empty());
    // Out of the determinism scope, hash iteration is not flagged.
    assert!(diags("crates/lint/src/fixture.rs", "d3_violation.rs").is_empty());
}

#[test]
fn p1_fixture_pair() {
    let hits = diags("crates/smtp/src/fixture.rs", "p1_violation.rs");
    assert_eq!(hits.len(), 3, "unwrap, expect and panic!: {hits:?}");
    assert!(hits.iter().all(|d| d.rule == "P1"), "{hits:?}");
    assert!(diags("crates/smtp/src/fixture.rs", "p1_clean.rs").is_empty());
    // Outside the protocol path the same code is not P1's business.
    assert!(diags("crates/analysis/src/fixture.rs", "p1_violation.rs").is_empty());
}

#[test]
fn p2_fixture_pair() {
    let hits = diags("crates/mta/src/fixture.rs", "p2_violation.rs");
    assert_eq!(hits.len(), 2, "Reply::single and Reply::new: {hits:?}");
    assert!(hits.iter().all(|d| d.rule == "P2"), "{hits:?}");
    assert!(diags("crates/mta/src/fixture.rs", "p2_clean.rs").is_empty());
    // The constants module itself is exempt.
    assert!(diags("crates/smtp/src/reply.rs", "p2_violation.rs").is_empty());
}

#[test]
fn o1_fixture_pair() {
    let hits = diags("crates/mta/src/fixture.rs", "o1_violation.rs");
    assert_eq!(
        hits.len(),
        8,
        "six recorders (registry, time-series, timeline), the trace category and the eager \
         trace detail: {hits:?}"
    );
    assert!(hits.iter().all(|d| d.rule == "O1"), "{hits:?}");
    assert!(diags("crates/mta/src/fixture.rs", "o1_clean.rs").is_empty());
    // The crate metrics module and the obs crate itself are exempt.
    assert!(diags("crates/mta/src/metrics.rs", "o1_violation.rs").is_empty());
    assert!(diags("crates/obs/src/registry.rs", "o1_violation.rs").is_empty());
}

#[test]
fn s1_fixture_pair() {
    let hits = diags("crates/mta/src/fixture.rs", "s1_violation.rs");
    assert_eq!(hits.len(), 3, "the heap import, the heap field and the attempt sort: {hits:?}");
    assert!(hits.iter().all(|d| d.rule == "S1"), "{hits:?}");
    assert!(diags("crates/mta/src/fixture.rs", "s1_clean.rs").is_empty());
    // The engine crate owns the one sanctioned time-ordered queue.
    assert!(diags("crates/sim/src/fixture.rs", "s1_violation.rs").is_empty());
}

#[test]
fn f1_fixture_pair() {
    let hits = diags("crates/core/src/fixture.rs", "f1_violation.rs");
    assert_eq!(hits.len(), 6, "five name literals plus the probability: {hits:?}");
    assert!(hits.iter().all(|d| d.rule == "F1"), "{hits:?}");
    assert!(diags("crates/core/src/fixture.rs", "f1_clean.rs").is_empty());
    // The fault catalog and metrics modules own these literals.
    assert!(diags("crates/net/src/faults.rs", "f1_violation.rs").is_empty());
    assert!(diags("crates/core/src/metrics.rs", "f1_violation.rs").is_empty());
}

#[test]
fn o1_allowlist_suppression() {
    let text = r#"
[[allow]]
rule = "O1"
path = "crates/mta/src/fixture.rs"
contains = "smtp.reject"
justification = "fixture: suppress exactly the trace-category violation"
"#;
    let list = Allowlist::parse(text).expect("valid allowlist");
    let hits = diags("crates/mta/src/fixture.rs", "o1_violation.rs");
    let (suppressed, live): (Vec<_>, Vec<_>) =
        hits.into_iter().partition(|d| list.matches(d.rule, &d.path, &d.line_text).is_some());
    assert_eq!(suppressed.len(), 1, "{suppressed:?}");
    assert_eq!(live.len(), 7, "{live:?}");
}

#[test]
fn allowlist_round_trip_suppresses_fixture_violations() {
    let text = r#"
[[allow]]
rule = "P1"
path = "crates/smtp/src/fixture.rs"
contains = "line.get(..3).unwrap()"
justification = "fixture: suppress exactly one of the three violations"
"#;
    let list = Allowlist::parse(text).expect("valid allowlist");
    assert_eq!(list.entries.len(), 1);

    let hits = diags("crates/smtp/src/fixture.rs", "p1_violation.rs");
    let (suppressed, live): (Vec<_>, Vec<_>) =
        hits.into_iter().partition(|d| list.matches(d.rule, &d.path, &d.line_text).is_some());
    assert_eq!(suppressed.len(), 1, "{suppressed:?}");
    assert_eq!(live.len(), 2, "{live:?}");
    assert!(suppressed[0].line_text.contains("unwrap"));
}

#[test]
fn allowlist_rejects_missing_justification() {
    let text = "[[allow]]\nrule = \"D1\"\npath = \"x.rs\"\n";
    assert!(Allowlist::parse(text).is_err());
}

/// The reason this crate exists: the workspace itself must be clean under
/// its own rules (with the triaged debt in `lint-allow.toml`, none of
/// which may touch D1 in crates/smtp).
#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let report = spamward_lint::lint_workspace(&root).expect("lint runs");
    assert!(report.files_scanned > 50, "scan looks too small: {}", report.files_scanned);
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint violations:\n{}",
        report.diagnostics.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
    );
    // Stale allowlist entries surface as A1 diagnostics, so the emptiness
    // assertion above already covers them.
    // Acceptance criterion: zero allowlisted wall-clock debt in crates/smtp.
    let allowlist = Allowlist::load(&root.join(spamward_lint::ALLOWLIST_FILE)).expect("allowlist");
    assert!(
        !allowlist.entries.iter().any(|e| e.rule == "D1" && e.path.starts_with("crates/smtp/")),
        "crates/smtp must not carry allowlisted wall-clock (D1) debt"
    );
}

#[test]
fn binary_exits_zero_on_clean_workspace_and_one_on_violations() {
    let bin = env!("CARGO_BIN_EXE_spamward-lint");

    // Clean: the real workspace.
    let ok = Command::new(bin).arg(workspace_root()).output().expect("run lint");
    assert!(
        ok.status.success(),
        "expected exit 0, got {:?}\nstdout:\n{}\nstderr:\n{}",
        ok.status.code(),
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr),
    );

    // Violations: a scratch tree seeded with the D1 fixture.
    let scratch = scratch_dir("seeded");
    std::fs::create_dir_all(scratch.join("src")).expect("mkdir");
    std::fs::write(scratch.join("src/main.rs"), fixture("d1_violation.rs")).expect("seed");
    let bad = Command::new(bin).arg(&scratch).output().expect("run lint");
    assert_eq!(bad.status.code(), Some(1), "stdout:\n{}", String::from_utf8_lossy(&bad.stdout));
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("[D1]"), "diagnostic names the rule: {stdout}");
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn binary_exits_one_on_stale_allowlist_entry() {
    let bin = env!("CARGO_BIN_EXE_spamward-lint");
    let scratch = scratch_dir("stale");
    std::fs::create_dir_all(scratch.join("src")).expect("mkdir");
    std::fs::write(scratch.join("src/lib.rs"), "pub fn ok() {}\n").expect("seed");
    std::fs::write(
        scratch.join("lint-allow.toml"),
        "[[allow]]\nrule = \"P1\"\npath = \"src/lib.rs\"\njustification = \"matches nothing\"\n",
    )
    .expect("seed allowlist");
    let out = Command::new(bin).arg(&scratch).output().expect("run lint");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("stale"));
    std::fs::remove_dir_all(&scratch).ok();
}

fn workspace_root() -> PathBuf {
    walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spamward-lint-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

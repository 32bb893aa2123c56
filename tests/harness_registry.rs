//! Registry completeness: every experiment module is registered exactly
//! once, ids are unique, and the CLI listing covers every row. (Registry ↔
//! DESIGN.md index sync is enforced by lint rule `R1`, which resolves each
//! registry entry to the id its `impl Experiment` returns.) Also DESIGN.md's
//! dependency policy, read off the root manifest and `stubs/`.

use spamward::core::harness;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

fn repo_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn every_experiment_module_is_registered_exactly_once() {
    let dir = repo_path("crates/core/src/experiments");
    let mut impls_per_module: BTreeMap<String, usize> = BTreeMap::new();
    for entry in fs::read_dir(&dir).expect("experiments dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let module = path.file_stem().expect("file stem").to_string_lossy().to_string();
        // mod.rs declares the modules; worlds.rs hosts shared builders.
        if module == "mod" || module == "worlds" {
            continue;
        }
        let source = fs::read_to_string(&path).expect("readable module source");
        impls_per_module.insert(module, source.matches("impl Experiment for").count());
    }

    // kelihos hosts two experiments (fig3 + fig4 share one run); every
    // other module contributes exactly one registry entry.
    for (module, count) in &impls_per_module {
        let expected = if module == "kelihos" { 2 } else { 1 };
        assert_eq!(
            *count, expected,
            "{module}.rs: expected {expected} `impl Experiment` block(s), found {count}"
        );
    }
    let total: usize = impls_per_module.values().sum();
    assert_eq!(
        total,
        harness::registry().len(),
        "experiment impls vs registry entries: {impls_per_module:?}"
    );
}

#[test]
fn registry_ids_are_unique_and_stable() {
    let ids: Vec<&str> = harness::registry().iter().map(|e| e.id()).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate experiment id: {ids:?}");
    // The canonical `repro all` order.
    assert_eq!(
        ids,
        vec![
            "table1",
            "fig2",
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "table3",
            "table4",
            "summary",
            "ablations",
            "future",
            "dialects",
            "costs",
            "longterm",
            "variance",
            "resilience",
            "policy_backend",
            "recovery",
        ]
    );
}

#[test]
fn list_text_covers_every_registry_row() {
    // `repro --list` prints exactly this rendering.
    let listing = harness::list_text();
    for exp in harness::registry() {
        assert!(listing.contains(exp.id()), "--list missing id {}", exp.id());
        assert!(
            listing.contains(exp.paper_artifact()),
            "--list missing artifact {}",
            exp.paper_artifact()
        );
        assert!(listing.contains(exp.title()), "--list missing title {}", exp.title());
    }
}

/// The registry ids whose runs take `HarnessConfig::event_budget`, with the
/// exact error one engine event per world produces at `Scale::Quick`:
/// `(id, id the error names, episodes cut, events executed)`. summary
/// replays table2 through the registry, so its error names table2.
const BUDGETED: [(&str, &str, u64, u64); 12] = [
    ("table2", "table2", 110, 22),
    ("fig3", "fig3", 120, 3),
    ("fig4", "fig4", 120, 3),
    ("fig5", "fig5", 300, 8),
    ("table3", "table3", 10, 10),
    ("summary", "table2", 110, 22),
    ("future", "future", 48, 12),
    ("costs", "costs", 180, 3),
    ("longterm", "longterm", 420, 1),
    ("resilience", "resilience", 20, 20),
    ("policy_backend", "policy_backend", 24, 12),
    ("recovery", "recovery", 14, 14),
];

#[test]
fn event_budget_cuts_every_world_driving_run_with_a_typed_error() {
    let config = harness::HarnessConfig {
        scale: harness::Scale::Quick,
        event_budget: Some(1),
        ..Default::default()
    };
    for (id, named, episodes_cut, events) in BUDGETED {
        let exp = harness::find(id).expect("registered id");
        assert_eq!(
            exp.run(&config).err(),
            Some(harness::HarnessError::BudgetExhausted {
                id: named.to_owned(),
                episodes_cut,
                events
            }),
            "{id}"
        );
    }
    // Every other id drives no budgeted world: the catalogues, the scan,
    // ablations (whose studies build their own worlds) and variance
    // (whose per-seed runs carry no budget).
    let unbudgeted: Vec<&str> = harness::registry()
        .iter()
        .map(|e| e.id())
        .filter(|id| BUDGETED.iter().all(|(b, ..)| b != id))
        .collect();
    assert_eq!(unbudgeted, ["table1", "fig2", "table4", "ablations", "dialects", "variance"]);
}

/// DESIGN.md's dependency policy as a check: std is the only runtime
/// dependency, and the only external crates are the offline `criterion`
/// and `proptest` stand-ins under `stubs/`, which benches and tests use.
#[test]
fn external_dependencies_are_only_the_criterion_and_proptest_stubs() {
    let manifest = fs::read_to_string(repo_path("Cargo.toml")).expect("root manifest");
    let section = manifest
        .split("[workspace.dependencies]")
        .nth(1)
        .expect("a [workspace.dependencies] table")
        .lines()
        .take_while(|line| !line.starts_with('['));
    let mut external: BTreeMap<String, String> = BTreeMap::new();
    for line in section.map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (name, spec) = line.split_once('=').expect("a `name = spec` entry");
        let name = name.trim();
        if !name.starts_with("spamward-") {
            external.insert(name.to_owned(), spec.trim().to_owned());
        }
    }
    assert_eq!(external.keys().collect::<Vec<_>>(), ["criterion", "proptest"]);
    for (name, spec) in &external {
        assert_eq!(spec, &format!("{{ path = \"stubs/{name}\" }}"), "{name}");
    }

    let mut stubs: Vec<String> = fs::read_dir(repo_path("stubs"))
        .expect("stubs dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.is_dir())
        .map(|path| path.file_name().expect("file name").to_string_lossy().into_owned())
        .collect();
    stubs.sort();
    assert_eq!(stubs, ["criterion", "proptest"]);
}

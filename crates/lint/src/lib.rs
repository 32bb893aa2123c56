//! # spamward-lint
//!
//! Workspace-wide determinism & panic-safety static analysis.
//!
//! The simulation's headline claim — same seed, same result — and the
//! protocol stack's no-panic discipline are invariants the stock toolchain
//! cannot check. This crate parses every workspace source (a masking
//! scanner, not a full parser; see [`lexer`]) in two passes: pass 1 builds
//! a [`model::WorkspaceModel`] (module graph, string-constant table,
//! function table, crate dependency edges) while the per-file rules run;
//! pass 2 runs cross-file rules against that model. Enforced:
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no wall-clock reads outside `crates/sim/src/wall.rs` |
//! | D2   | no unseeded randomness — everything flows through `spamward_sim::DetRng` |
//! | D3   | no iteration over `HashMap`/`HashSet` in crates feeding the event loop or analysis output |
//! | P1   | no `unwrap`/`expect`/`panic!` in protocol-path crates outside tests |
//! | P2   | SMTP reply codes come from `spamward_smtp::reply::codes`, never inline literals |
//! | O1   | metric/trace name literals live only in each crate's `metrics.rs`/`obs` module; no eager `format!` trace details |
//! | S1   | no hand-rolled virtual-time ordering (`BinaryHeap` + `SimTime`, timestamp-keyed sorts) outside `crates/sim` |
//! | F1   | fault-plan string literals resolve to `spamward_sim::fault` constants |
//! | C1   | concurrency primitives confined to the sanctioned fan-out modules (cross-file) |
//! | C2   | f64 accumulation in experiment/metrics code uses `ordered_sum` (cross-file) |
//! | O2   | metric constants unique + alive; metric literals resolve to declarations (cross-file) |
//! | R1   | RULE_IDS ↔ DESIGN.md rules table, registry ↔ DESIGN.md index (cross-file) |
//! | A1   | `lint-allow.toml` entries must still match something — stale debt fails the run |
//!
//! Known debt is suppressed via `lint-allow.toml` ([`allow`]); every entry
//! carries a mandatory justification, and entries that stop matching are
//! reported as `A1` diagnostics so the list cannot rot.
//!
//! Run it with `cargo run -p spamward-lint`; exit status 0 means clean,
//! 1 means violations, 2 means the lint itself failed (unreadable files,
//! malformed allowlist). `--json` emits the stable machine-readable report
//! ([`json`]); `--explain RULE` prints a rule's rationale.

pub mod allow;
pub mod json;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod rules_xfile;
pub mod walk;

pub use allow::{AllowEntry, Allowlist, AllowlistError};
pub use model::WorkspaceModel;
pub use rules::Diagnostic;

use std::fmt;
use std::path::Path;

/// Name of the allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allow.toml";

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by any allowlist entry — including `A1`
    /// stale-allow findings — sorted by `(path, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations suppressed by the allowlist, with the entry index used.
    pub suppressed: Vec<(Diagnostic, usize)>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when there is nothing to fix.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// A failure of the lint itself (not a finding).
#[derive(Debug)]
pub enum LintError {
    /// A source file could not be read.
    Io(String, std::io::Error),
    /// `lint-allow.toml` is malformed.
    Allowlist(AllowlistError),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{path}: {e}"),
            LintError::Allowlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<AllowlistError> for LintError {
    fn from(e: AllowlistError) -> Self {
        LintError::Allowlist(e)
    }
}

/// Lints the workspace rooted at `root`: discovers in-scope sources, builds
/// the semantic model, runs per-file then cross-file rules, and applies
/// `lint-allow.toml`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    if !root.is_dir() {
        return Err(LintError::Io(
            root.display().to_string(),
            std::io::Error::new(std::io::ErrorKind::NotFound, "lint root is not a directory"),
        ));
    }
    let allowlist = Allowlist::load(&root.join(ALLOWLIST_FILE))?;
    let files =
        walk::workspace_files(root).map_err(|e| LintError::Io(root.display().to_string(), e))?;

    // Pass 1: read every source and build the workspace model.
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let abs = root.join(rel);
        let source = std::fs::read_to_string(&abs)
            .map_err(|e| LintError::Io(abs.display().to_string(), e))?;
        sources.push((walk::rel_str(rel), source));
    }
    let model = WorkspaceModel::from_sources(sources, read_manifests(root), read_design_md(root));

    // Per-file rules over the model's sources, then pass 2 cross-file rules.
    let mut raw = Vec::new();
    for (rel, facts) in &model.files {
        raw.extend(rules::check_file(rel, &facts.source));
    }
    raw.extend(rules_xfile::check_workspace(&model));

    let mut report = LintReport { files_scanned: model.files.len(), ..LintReport::default() };
    let mut used = vec![false; allowlist.entries.len()];
    for diag in raw {
        match allowlist.matches(diag.rule, &diag.path, &diag.line_text) {
            Some(idx) => {
                used[idx] = true;
                report.suppressed.push((diag, idx));
            }
            None => report.diagnostics.push(diag),
        }
    }

    // A1: entries that matched nothing are themselves findings.
    for (entry, _) in allowlist.entries.iter().zip(&used).filter(|&(_, &u)| !u) {
        report.diagnostics.push(Diagnostic {
            rule: "A1",
            path: ALLOWLIST_FILE.to_string(),
            line: entry.defined_at,
            line_text: entry.to_string(),
            message: format!("stale allow entry {entry} — matches nothing; remove this entry"),
        });
    }

    report
        .diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(report)
}

/// Member manifests for the model: the root `Cargo.toml` plus every
/// `crates/*/Cargo.toml`, in deterministic path order.
fn read_manifests(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
        out.push((String::new(), text));
    }
    let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    dirs.sort();
    for dir in dirs {
        if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if let Some(name) = dir.file_name().and_then(|n| n.to_str()) {
                out.push((format!("crates/{name}"), text));
            }
        }
    }
    out
}

/// The root `DESIGN.md`, when present.
fn read_design_md(root: &Path) -> Option<String> {
    std::fs::read_to_string(root.join("DESIGN.md")).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_clean_requires_no_diagnostics() {
        let mut r = LintReport::default();
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic {
            rule: "A1",
            path: ALLOWLIST_FILE.into(),
            line: 1,
            line_text: "[P1] x.rs".into(),
            message: "stale".into(),
        });
        assert!(!r.is_clean());
    }
}

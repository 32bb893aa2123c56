//! Pass 2: cross-file rules running against the [`WorkspaceModel`].
//!
//! These are the invariants a per-file scan cannot see — where concurrency
//! is allowed to live, which reductions stay order-stable when one world
//! becomes N shards, whether the metric namespace and the docs agree with
//! the code. Rules:
//!
//! * **C1 shard-safety** — nondeterministic concurrency primitives are
//!   confined to the sanctioned fan-out modules;
//! * **C2 float-order** — f64 accumulation in experiment/metrics code goes
//!   through the one ordered-reduction helper;
//! * **O2 metric hygiene** — metric-name constants are unique and alive,
//!   and metric-shaped literals resolve to declared constants;
//! * **R1 doc-sync** — `RULE_IDS` ↔ DESIGN.md rules table, and the
//!   experiment registry ↔ DESIGN.md per-experiment index.

use crate::lexer::find_token;
use crate::model::WorkspaceModel;
use crate::rules::{self, Diagnostic};
use std::collections::BTreeMap;

/// Modules sanctioned to use concurrency primitives: the deterministic
/// shard executor, which every parallel path (the `variance` seed sweep,
/// `repro all --jobs`, the `policy_backend` grid, `repro --shards`) routes
/// through. World code stays single-threaded; parallelism happens across
/// whole deterministic shards whose outputs merge byte-stably.
const C1_SANCTIONED: &[&str] = &["crates/sim/src/shard.rs"];

/// Concurrency primitives C1 looks for. Token-matched against masked
/// source, so comments and strings never trip it.
const C1_PATTERNS: &[&str] = &[
    "std::thread",
    "thread::spawn",
    "rayon",
    "crossbeam",
    "Mutex",
    "RwLock",
    "Condvar",
    "mpsc",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

/// Path prefixes whose f64 reductions feed reproduced numbers; rule C2
/// applies to their sources (plus every `metrics.rs` module).
const C2_SCOPE: &[&str] =
    &["crates/core/src/experiments/", "crates/analysis/src/", "crates/obs/src/"];

/// The one sanctioned ordered-reduction module (exempt from C2).
const C2_REDUCE_MODULE: &str = "crates/analysis/src/reduce.rs";

/// Where the experiment registry lives; R1 parses its `REGISTRY` array.
const REGISTRY_FILE: &str = "crates/core/src/harness.rs";

/// Where the per-module experiment implementations live.
const EXPERIMENTS_DIR: &str = "crates/core/src/experiments";

/// Runs every cross-file rule over the model. Diagnostics come back
/// deduplicated per (path, line, rule) and sorted.
pub fn check_workspace(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_c1(model, &mut out);
    check_c2(model, &mut out);
    check_o2(model, &mut out);
    check_r1(model, &mut out);
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    out
}

/// C1 — shard-safety: concurrency primitives outside the sanctioned
/// fan-out modules. ROADMAP item 1 multiplies worlds into deterministic
/// shards; a stray `Mutex` or spawned thread in world code makes event
/// order host-scheduled and silently breaks the byte-identical merge
/// contract the reproduced numbers rest on.
fn check_c1(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    for (rel, facts) in &model.files {
        if C1_SANCTIONED.contains(&rel.as_str()) || rel.starts_with("crates/lint/") {
            continue;
        }
        for pat in C1_PATTERNS {
            for offset in find_token(&facts.scanned.masked, pat) {
                if facts.scanned.in_test_region(offset) {
                    continue;
                }
                rules::push(
                    out,
                    &facts.scanned,
                    &facts.source,
                    rel,
                    "C1",
                    offset,
                    format!(
                        "concurrency primitive `{pat}` outside the sanctioned fan-out \
                         modules — world code must stay single-threaded-deterministic; \
                         parallelize across whole worlds via the `spamward_sim::shard` \
                         executor (`run_partitioned`/`run_sharded`)"
                    ),
                );
            }
        }
    }
}

/// C2 — float-order: f64 accumulation in experiment/metrics code outside
/// the ordered-reduction helper. f64 addition is not associative; when one
/// world becomes N merged shards, any reduction whose operand order is
/// incidental changes the reproduced numbers. `ordered_sum` is the one
/// place that pins the order.
fn check_c2(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    for (rel, facts) in &model.files {
        let in_scope = C2_SCOPE.iter().any(|p| rel.starts_with(p)) || rel.ends_with("/metrics.rs");
        if !in_scope || rel == C2_REDUCE_MODULE {
            continue;
        }
        let masked = &facts.scanned.masked;
        // `.sum()` reductions producing f64: turbofish `::<f64>`, or a
        // plain `.sum()` whose binding (before the call on the line) is
        // typed f64. `sum::<u64>() as f64` stays order-insensitive and is
        // not flagged.
        for offset in find_token(masked, ".sum") {
            if facts.scanned.in_test_region(offset) {
                continue;
            }
            let after = masked[offset + ".sum".len()..].trim_start();
            let is_f64 = if let Some(rest) = after.strip_prefix("::<") {
                rest.split('>').next().is_some_and(|ty| ty.contains("f64"))
            } else {
                let start = masked[..offset].rfind('\n').map(|p| p + 1).unwrap_or(0);
                masked[start..offset].contains("f64")
            };
            if is_f64 {
                rules::push(
                    out,
                    &facts.scanned,
                    &facts.source,
                    rel,
                    "C2",
                    offset,
                    "f64 `.sum()` reduction — route it through \
                     `spamward_analysis::reduce::ordered_sum` so the reduction order \
                     stays pinned when worlds are sharded"
                        .to_string(),
                );
            }
        }
        // `name += …` accumulators on identifiers declared as f64 (typed
        // `: f64`, or initialized from a float literal).
        for name in f64_idents(masked) {
            for offset in find_token(masked, &name) {
                if facts.scanned.in_test_region(offset) {
                    continue;
                }
                if masked[offset + name.len()..].trim_start().starts_with("+=") {
                    rules::push(
                        out,
                        &facts.scanned,
                        &facts.source,
                        rel,
                        "C2",
                        offset,
                        format!(
                            "f64 accumulator `{name} += …` — collect the addends and \
                             reduce with `spamward_analysis::reduce::ordered_sum` so the \
                             order stays pinned when worlds are sharded"
                        ),
                    );
                }
            }
        }
    }
}

/// Identifiers visibly of type f64 in `masked`: `name: f64` ascriptions
/// (let bindings, fields, params) and `let [mut] name = <float literal>`.
fn f64_idents(masked: &str) -> Vec<String> {
    let mut names = std::collections::BTreeSet::new();
    for offset in find_token(masked, "f64") {
        let before = masked[..offset].trim_end();
        if let Some(prefix) = before.strip_suffix(':') {
            if let Some(name) = trailing_ident(prefix.trim_end()) {
                names.insert(name);
            }
        }
    }
    for offset in find_token(masked, "let") {
        let after = masked[offset + "let".len()..].trim_start();
        let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
        let name: String =
            after.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if name.is_empty() {
            continue;
        }
        let rest = after[name.len()..].trim_start();
        let Some(value) = rest.strip_prefix('=') else { continue };
        let value = value.trim_start();
        // A float literal: leading digit and a decimal point (`0.0`,
        // `12.5f64`) or an explicit f64 suffix.
        let token: String = value
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_')
            .collect();
        if token.starts_with(|c: char| c.is_ascii_digit())
            && (token.contains('.') || token.ends_with("f64"))
        {
            names.insert(name);
        }
    }
    names.into_iter().collect()
}

/// The identifier ending at the end of `s`, if any.
fn trailing_ident(s: &str) -> Option<String> {
    let end = s.len();
    let start =
        s.rfind(|c: char| !c.is_ascii_alphanumeric() && c != '_').map(|i| i + 1).unwrap_or(0);
    if start == end {
        return None;
    }
    let ident = &s[start..end];
    if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(ident.to_string())
}

/// O2 — metric hygiene. Declarations come from every `metrics.rs` module
/// (pass 1's string-constant table); three checks:
///
/// 1. every declared metric name is unique workspace-wide;
/// 2. every declared constant is referenced by at least one collection or
///    recording site (dead names rot out of the golden snapshot silently);
/// 3. every metric-shaped string literal in a namespace the workspace
///    declares resolves to a declared constant (or extends a declared
///    dynamic-name prefix), so renames cannot leave stale names behind.
fn check_o2(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    // Pass over declarations: value → (path, line, name) in path order.
    let mut by_value: BTreeMap<&str, Vec<(&str, usize, &str)>> = BTreeMap::new();
    for (rel, facts) in &model.files {
        if !rel.ends_with("/metrics.rs") {
            continue;
        }
        for c in &facts.string_consts {
            by_value.entry(&c.value).or_default().push((rel, c.line, &c.name));
        }
    }

    // (1) duplicates and (2) dead constants.
    for (value, sites) in &by_value {
        if sites.len() > 1 {
            let (first_path, first_line, _) = sites[0];
            for &(rel, line, name) in &sites[1..] {
                push_at(
                    model,
                    out,
                    "O2",
                    rel,
                    line,
                    format!(
                        "duplicate metric name {value:?}: `{name}` collides with the \
                     declaration at {first_path}:{first_line} — metric names must be \
                     unique workspace-wide"
                    ),
                );
            }
        }
        for &(rel, line, name) in sites.iter() {
            if model.ident_uses_excluding(name, rel, line) == 0 {
                push_at(
                    model,
                    out,
                    "O2",
                    rel,
                    line,
                    format!(
                        "dead metric constant `{name}` ({value:?}) — no collect_*/recording \
                     site references it; wire it up or remove it"
                    ),
                );
            }
        }
    }

    // (3) unresolved metric-shaped literals.
    let declared: std::collections::BTreeSet<&str> = by_value.keys().copied().collect();
    let prefixes2: std::collections::BTreeSet<String> = declared
        .iter()
        .filter_map(|v| {
            let mut segs = v.trim_end_matches('.').split('.');
            match (segs.next(), segs.next()) {
                (Some(a), Some(b)) => Some(format!("{a}.{b}")),
                _ => None,
            }
        })
        .collect();
    let dynamic_bases: Vec<&str> = declared.iter().filter(|v| v.ends_with('.')).copied().collect();
    let roots: std::collections::BTreeSet<&str> =
        declared.iter().filter_map(|v| v.split('.').next()).collect();

    for (rel, facts) in &model.files {
        if rel.ends_with("/metrics.rs")
            || rel.starts_with("crates/obs/")
            || rel.starts_with("crates/lint/")
            || rel.starts_with("tests/")
            || rel.contains("/tests/")
        {
            continue;
        }
        for (offset, lit) in string_literals(&facts.code) {
            if facts.scanned.in_test_region(offset) {
                continue;
            }
            if !is_metric_shaped(&lit) {
                continue;
            }
            if declared.contains(lit.as_str()) {
                continue;
            }
            // `DetRng::fork("…")` labels name RNG streams, not metrics —
            // a separate dotted namespace outside O2's contract.
            if facts.code[..offset].trim_end().ends_with("fork(") {
                continue;
            }
            if dynamic_bases.iter().any(|b| lit.starts_with(b)) {
                continue;
            }
            let mut segs = lit.split('.');
            let prefix2 = match (segs.next(), segs.next()) {
                (Some(a), Some(b)) => format!("{a}.{b}"),
                _ => continue,
            };
            // Only namespaces the workspace actually declares are O2's
            // business: hostnames and file names share the dot shape but
            // not a declared `root.family` prefix. Two-segment literals are
            // additionally checked against the declared roots (a truncated
            // or misspelled family cannot hide), while deeper literals need
            // the full `root.family` match so multi-label hostnames under a
            // short root never false-positive.
            let root = lit.split('.').next().unwrap_or("");
            let owned = prefixes2.contains(&prefix2)
                || (lit.split('.').count() == 2 && roots.contains(root));
            if owned {
                push_at(
                    model,
                    out,
                    "O2",
                    rel,
                    facts.scanned.line_of(offset),
                    format!(
                        "unresolved metric literal {lit:?} — no `metrics.rs` module declares \
                     this name; use the declared constant (or declare it) so the \
                     observability contract stays greppable"
                    ),
                );
            }
        }
    }
}

/// Extracts plain `"…"` literal contents (with their byte offsets) from the
/// comments-only view.
fn string_literals(code: &str) -> Vec<(usize, String)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i;
            i += 1;
            let mut value = String::new();
            let mut closed = false;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => {
                        i += 2;
                    }
                    b'"' => {
                        closed = true;
                        i += 1;
                        break;
                    }
                    b => {
                        if b.is_ascii() {
                            value.push(b as char);
                        }
                        i += 1;
                    }
                }
            }
            if closed {
                out.push((start, value));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Whether `lit` has the dotted-metric shape: two or more non-empty
/// `[a-z0-9_]` segments, starting with a letter.
fn is_metric_shaped(lit: &str) -> bool {
    let segs: Vec<&str> = lit.split('.').collect();
    segs.len() >= 2
        && lit.starts_with(|c: char| c.is_ascii_lowercase())
        && segs.iter().all(|s| {
            !s.is_empty()
                && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// R1 — doc-sync. The linter is the single checker for catalog ↔ docs
/// agreement: `RULE_IDS` ↔ the DESIGN.md rules table, and the experiment
/// `REGISTRY` (parsed from `crates/core/src/harness.rs`, each entry
/// resolved through its module's `impl Experiment` block to the id the CLI
/// prints) ↔ the DESIGN.md per-experiment index. Checks only run when the
/// artifact they read exists, so scratch trees stay lintable.
fn check_r1(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    if let Some(design) = &model.design_md {
        check_rules_table(design, out);
        if let Some(ids) = registry_ids(model, out) {
            check_experiment_index(design, &ids, out);
        }
    } else if model.files.contains_key(REGISTRY_FILE) {
        out.push(doc_diag(
            1,
            "DESIGN.md is missing but the experiment registry exists — the \
             per-experiment index documents every registry entry"
                .to_string(),
            String::new(),
        ));
    }
}

/// DESIGN.md rules-table rows must equal `RULE_IDS`, in order.
fn check_rules_table(design: &str, out: &mut Vec<Diagnostic>) {
    const SECTION: &str = "## Determinism & panic-safety rules";
    let Some(at) = design.find(SECTION) else { return };
    let line = design[..at].lines().count() + 1;
    let section = design[at..].split("\n## ").next().unwrap_or("");
    let mut rows = Vec::new();
    for row in section.lines() {
        if let Some(rest) = row.strip_prefix("| `") {
            if let Some(id) = rest.split('`').next() {
                rows.push(id.to_owned());
            }
        }
    }
    let expected: Vec<String> = rules::RULE_IDS.iter().map(|r| r.to_string()).collect();
    if rows != expected {
        out.push(doc_diag(
            line,
            format!(
                "DESIGN.md rules table is out of sync with RULE_IDS: table lists \
                 [{}], linter enforces [{}]",
                rows.join(", "),
                expected.join(", ")
            ),
            SECTION.to_string(),
        ));
    }
}

/// Parses the `REGISTRY` array and resolves each `&module::Type` entry to
/// the experiment id its `impl Experiment` block returns from `fn id`.
fn registry_ids(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) -> Option<Vec<String>> {
    let harness = model.files.get(REGISTRY_FILE)?;
    let masked = &harness.scanned.masked;
    let reg_at = find_token(masked, "REGISTRY")
        .into_iter()
        .find(|&o| masked[o + "REGISTRY".len()..].trim_start().starts_with(':'))?;
    // Skip past the type annotation (`: [&dyn Experiment; N] =`) to the
    // initializer's bracket.
    let eq = reg_at + masked[reg_at..].find('=')?;
    let open = eq + masked[eq..].find('[')?;
    let close = open + masked[open..].find(']')?;
    let mut ids = Vec::new();
    for entry in masked[open + 1..close].split(',') {
        let entry = entry.trim();
        let Some(path) = entry.strip_prefix('&') else { continue };
        let mut segs = path.split("::").map(str::trim);
        let (Some(module), Some(ty)) = (segs.next(), segs.next()) else { continue };
        match experiment_id(model, module, ty) {
            Some(id) => ids.push(id),
            None => out.push(Diagnostic {
                rule: "R1",
                path: REGISTRY_FILE.to_string(),
                line: harness.scanned.line_of(open),
                line_text: entry.to_string(),
                message: format!(
                    "registry entry `&{module}::{ty}` does not resolve: expected \
                     `impl Experiment for {ty}` with a literal `fn id` in \
                     {EXPERIMENTS_DIR}/{module}.rs"
                ),
            }),
        }
    }
    Some(ids)
}

/// The id literal returned by `fn id` inside `impl Experiment for Type` in
/// the module's source file.
fn experiment_id(model: &WorkspaceModel, module: &str, ty: &str) -> Option<String> {
    let rel = format!("{EXPERIMENTS_DIR}/{module}.rs");
    let facts = model.files.get(&rel)?;
    let masked = &facts.scanned.masked;
    let needle = format!("impl Experiment for {ty}");
    let at = masked.find(&needle)?;
    let body_open = at + masked[at..].find('{')?;
    let body_close = match_brace(masked.as_bytes(), body_open)?;
    let id_at = body_open + masked[body_open..body_close].find("fn id")?;
    // The returned literal, read from the literal-preserving view.
    let quote = id_at + facts.code[id_at..].find('"')?;
    let end = quote + 1 + facts.code[quote + 1..].find('"')?;
    Some(facts.code[quote + 1..end].to_string())
}

/// Byte offset of the `}` matching the `{` at `open`.
fn match_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// DESIGN.md per-experiment index rows must equal the registry ids, in
/// order.
fn check_experiment_index(design: &str, registry: &[String], out: &mut Vec<Diagnostic>) {
    const SECTION: &str = "## Per-experiment index";
    let Some(at) = design.find(SECTION) else {
        out.push(doc_diag(
            1,
            format!(
                "DESIGN.md has no {SECTION:?} section but the registry defines {} \
                 experiments",
                registry.len()
            ),
            String::new(),
        ));
        return;
    };
    let line = design[..at].lines().count() + 1;
    let section = design[at..].split("\n## ").next().unwrap_or("");
    let mut rows = Vec::new();
    for row in section.lines() {
        if let Some(rest) = row.strip_prefix("| `") {
            if let Some(id) = rest.split('`').next() {
                rows.push(id.to_owned());
            }
        }
    }
    if rows != registry {
        out.push(doc_diag(
            line,
            format!(
                "DESIGN.md per-experiment index is out of sync with the registry: \
                 index lists [{}], registry resolves to [{}]",
                rows.join(", "),
                registry.join(", ")
            ),
            SECTION.to_string(),
        ));
    }
}

/// A diagnostic anchored in DESIGN.md.
fn doc_diag(line: usize, message: String, line_text: String) -> Diagnostic {
    Diagnostic { rule: "R1", path: "DESIGN.md".to_string(), line, line_text, message }
}

/// A diagnostic at a known (path, line) in a model file.
fn push_at(
    model: &WorkspaceModel,
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    rel: &str,
    line: usize,
    message: String,
) {
    let line_text = model
        .files
        .get(rel)
        .map(|f| f.scanned.line_text(&f.source, line).trim().to_string())
        .unwrap_or_default();
    out.push(Diagnostic { rule, path: rel.to_string(), line, line_text, message });
}

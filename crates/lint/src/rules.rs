//! The rule catalog: determinism (D1–D3), panic-safety (P1–P2),
//! observability hygiene (O1) and fault-injection hygiene (F1).
//!
//! Every rule here encodes a workspace-specific invariant the stock
//! toolchain cannot express. The catalog is documented for contributors in
//! `DESIGN.md` ("Determinism & panic-safety rules"); keep the two in sync.

use crate::lexer::{find_token, ScannedFile};
use std::collections::BTreeSet;
use std::fmt;

/// All rule identifiers, in report order. D/P/O1/S/F rules are per-file
/// ([`check_file`]); C1/C2/O2/R1 are cross-file rules running against the
/// workspace model ([`crate::rules_xfile`]); A1 is synthesized by the
/// driver for stale allowlist entries.
pub const RULE_IDS: &[&str] =
    &["D1", "D2", "D3", "P1", "P2", "O1", "S1", "F1", "C1", "C2", "O2", "R1", "A1"];

/// One paragraph per rule for `spamward-lint --explain RULE`: what the rule
/// forbids, why the invariant matters, and what to do instead.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D1" => {
            "D1 — wall-clock reads. Every reproduced number must be a pure function of \
             the seed; `Instant::now()`/`SystemTime::now()`/chrono silently couple results \
             to the host. Take time from the sim scheduler, or inject \
             `spamward_sim::wall::WallClock` — the only sanctioned host-clock module is \
             crates/sim/src/wall.rs."
        }
        "D2" => {
            "D2 — unseeded randomness. `thread_rng`, `rand::random`, `from_entropy`, \
             `OsRng` and `getrandom` draw from ambient entropy; every random draw must \
             flow through `spamward_sim::DetRng` (seed + fork label) so runs replay \
             bit-for-bit."
        }
        "D3" => {
            "D3 — hash-order iteration. `HashMap`/`HashSet` iteration order varies run to \
             run; in crates feeding the event loop or analysis output that nondeterminism \
             reaches the reports. Use `BTreeMap`/`BTreeSet`, or collect and sort before \
             iterating."
        }
        "P1" => {
            "P1 — panics on the protocol path. A panic mid-conversation tears down the \
             SMTP session (and, over TCP, the connection). Protocol-path crates (smtp, \
             mta, greylist, dns) return typed errors instead of `unwrap`/`expect`/`panic!`; \
             proven-unreachable cases need a justified lint-allow.toml entry."
        }
        "P2" => {
            "P2 — inline SMTP reply codes. 4xx-retry vs 5xx-reject is the whole \
             greylisting mechanism; codes come from `spamward_smtp::reply::codes` so grep \
             and the type system see every use."
        }
        "O1" => {
            "O1 — metric/trace name literals and eager trace details at recording sites. \
             Registry names, trace categories, time-series names \
             (`TimeSeries::record_point`) and timeline event names \
             (`Timeline::record_event`) are the observability contract; each crate binds \
             them as constants in its `metrics.rs`/`obs.rs` module so the namespace stays \
             greppable and typo-proof. Telemetry that is off costs nothing: the world's \
             event record is `EventLog::record(at, || event)`, whose closure builds nothing \
             while the log is off, and a `record(..)` detail (its third argument) is never \
             an eager `format!(..)` — pass `format_args!(..)` or a `&str`, so a delivery \
             with tracing off formats nothing."
        }
        "S1" => {
            "S1 — hand-rolled virtual-time ordering. A `BinaryHeap` in a file handling \
             `SimTime`, or a sort keyed on attempt/arrival/due timestamps, is a duplicate \
             event queue; schedule through `spamward_sim::ActorSim` (an actor that \
             returns its next wake-up). Only crates/sim owns a time-ordered queue."
        }
        "F1" => {
            "F1 — fault-injection literals outside the chaos catalog. Hard-coded fault \
             probabilities and `net.fault.*`/`mta.breaker.*`/`mta.crash.*`/\
             `greylist.degraded.*`/`greylist.recovery.*` name literals fork the fault \
             model; probabilities belong in a `FaultSpec` inside `spamward_net::faults`, \
             names in the owning crate's `metrics.rs`."
        }
        "C1" => {
            "C1 — shard-unsafe concurrency. Threads, rayon, locks, atomics and channels \
             in world code make event order depend on the host scheduler, which breaks \
             the byte-identical shard-merge contract. Concurrency is confined to the \
             sanctioned fan-out module (crates/sim/src/shard.rs, whose \
             run_partitioned/run_sharded executor every parallel path routes through); \
             world code stays single-threaded and parallelism happens across whole \
             deterministic worlds."
        }
        "C2" => {
            "C2 — unordered float accumulation. f64 addition is not associative, so a \
             `+=` loop or `.sum()` whose operand order ever changes (e.g. when one world \
             becomes N merged shards) changes the reproduced numbers. Experiment and \
             metrics code routes reductions through \
             `spamward_analysis::reduce::ordered_sum`, the one place that pins the \
             reduction order."
        }
        "O2" => {
            "O2 — dead, duplicate or unresolved metric names. Every metric-name constant \
             declared in a `metrics.rs` module must be unique workspace-wide and \
             referenced by at least one collection/recording site, and every dotted \
             metric-shaped literal in a namespace the workspace declares must resolve to \
             a declared constant — otherwise names drift out of the golden snapshot \
             silently. The sampled `obs.sample.*` series, the `timeline.*` event names \
             and the greylist store families (`greylist.backend.*` request/fault \
             counters, `greylist.policy.*` keying gauges, `greylist.recovery.*` \
             crash-recovery counters alongside `mta.crash.*`) are part of the same \
             contract and are checked identically."
        }
        "R1" => {
            "R1 — docs out of sync. The linter itself cross-checks the rule catalog \
             (RULE_IDS) against DESIGN.md's rules table, and the experiment registry \
             (crates/core/src/harness.rs REGISTRY order, resolved to experiment ids \
             through each module's `fn id`) against DESIGN.md's per-experiment index, so \
             the documentation cannot rot."
        }
        "A1" => {
            "A1 — stale allowlist entry. A lint-allow.toml entry that matches no \
             diagnostic excuses code that no longer exists; remove the entry. A1 itself \
             cannot be allowlisted."
        }
        _ => return None,
    })
}

/// The one module allowed to read the host clock: experiments must take
/// time from the simulation scheduler, and the real-network transport
/// injects this module's `WallClock` explicitly.
const WALL_CLOCK_MODULE: &str = "crates/sim/src/wall.rs";

/// Crates whose iteration order reaches the event loop or analysis output;
/// rule D3 applies to their sources.
const D3_SCOPE: &[&str] = &[
    "crates/sim/",
    "crates/net/",
    "crates/dns/",
    "crates/smtp/",
    "crates/greylist/",
    "crates/mta/",
    "crates/botnet/",
    "crates/scanner/",
    "crates/analysis/",
    "crates/core/",
    "crates/webmail/",
    "src/",
];

/// Protocol-path crates where a panic means a dropped SMTP conversation;
/// rule P1 applies to their library sources.
const P1_SCOPE: &[&str] =
    &["crates/smtp/src/", "crates/mta/src/", "crates/greylist/src/", "crates/dns/src/"];

/// The module that owns SMTP reply-code constants (exempt from P2).
const REPLY_MODULE: &str = "crates/smtp/src/reply.rs";

/// Crates exempt from rule S1: the engine crate owns the one sanctioned
/// time-ordered queue (`ActorSim`'s wake-ups), and the lint crate's own sources
/// name the patterns it searches for.
const S1_EXEMPT: &[&str] = &["crates/sim/", "crates/lint/"];

/// Identifier fragments that mark a sort key as virtual time: sorting by
/// an attempt/arrival/due timestamp is scheduling by hand.
const S1_TIME_KEYS: &[&str] = &["attempt", "arrival", "due", "deadline", "next_try", "wake"];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D1`..`P2`).
    pub rule: &'static str,
    /// Repo-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The offending source line (trimmed), as matched by the rule.
    pub line_text: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Runs every applicable rule over one file.
pub fn check_file(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let scanned = ScannedFile::scan(source);
    let mut out = Vec::new();
    check_d1(rel_path, source, &scanned, &mut out);
    check_d2(rel_path, source, &scanned, &mut out);
    check_d3(rel_path, source, &scanned, &mut out);
    check_p1(rel_path, source, &scanned, &mut out);
    check_p2(rel_path, source, &scanned, &mut out);
    check_o1(rel_path, source, &scanned, &mut out);
    check_s1(rel_path, source, &scanned, &mut out);
    check_f1(rel_path, source, &scanned, &mut out);
    dedupe(out)
}

/// D1 — wall-clock reads. Simulation results must be a pure function of the
/// seed; `Instant::now()` et al. silently couple them to the host.
fn check_d1(rel_path: &str, source: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if rel_path == WALL_CLOCK_MODULE {
        return;
    }
    const PATTERNS: &[&str] = &[
        "Instant::now",
        "SystemTime::now",
        "std::time::Instant",
        "std::time::SystemTime",
        "UNIX_EPOCH",
        "chrono::",
        "Utc::now",
        "Local::now",
    ];
    for pat in PATTERNS {
        for offset in find_token(&scanned.masked, pat) {
            push(
                out,
                scanned,
                source,
                rel_path,
                "D1",
                offset,
                format!(
                    "wall-clock read `{pat}` — take time from the sim scheduler, or inject \
                 `spamward_sim::wall::WallClock` (the only sanctioned host-clock source)"
                ),
            );
        }
    }
    // `use std::time::{.., Instant, ..}` grouped imports.
    for offset in find_token(&scanned.masked, "use std::time::") {
        let rest = &scanned.masked[offset..];
        if let Some(brace) = rest.find('{') {
            let end = rest.find('}').unwrap_or(rest.len());
            if brace < end {
                let group = &rest[brace..end];
                for name in ["Instant", "SystemTime"] {
                    if let Some(pos) = group.find(name) {
                        push(
                            out,
                            scanned,
                            source,
                            rel_path,
                            "D1",
                            offset + brace + pos,
                            format!(
                                "import of `std::time::{name}` — sim-reachable code must not \
                             handle host-clock types; inject a `spamward_sim::Clock` instead"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// D2 — unseeded randomness. Every random draw must flow through
/// `spamward_sim::DetRng`, which is seeded and fork-labelled.
fn check_d2(rel_path: &str, source: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    const PATTERNS: &[&str] = &["thread_rng", "rand::random", "from_entropy", "OsRng", "getrandom"];
    for pat in PATTERNS {
        for offset in find_token(&scanned.masked, pat) {
            push(
                out,
                scanned,
                source,
                rel_path,
                "D2",
                offset,
                format!(
                    "unseeded randomness `{pat}` — all randomness must flow through \
                 `spamward_sim::DetRng` (seed + fork label)"
                ),
            );
        }
    }
}

/// D3 — iteration over hash collections in determinism-sensitive crates.
/// `HashMap`/`HashSet` iteration order varies run to run; anything that
/// feeds the event loop or analysis output must iterate in sorted order
/// (`BTreeMap`/`BTreeSet`, or collect-and-sort).
fn check_d3(rel_path: &str, source: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !D3_SCOPE.iter().any(|p| rel_path.starts_with(p)) {
        return;
    }
    let masked = &scanned.masked;
    let names = hash_collection_names(masked);
    const ITER_SUFFIXES: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
        ".into_keys()",
        ".into_values()",
    ];
    for name in &names {
        for offset in find_token(masked, name) {
            if scanned.in_test_region(offset) {
                continue;
            }
            let after = &masked[offset + name.len()..];
            let iterated = ITER_SUFFIXES.iter().any(|s| after.starts_with(s))
                || is_for_loop_target(masked, offset);
            if iterated {
                push(
                    out,
                    scanned,
                    source,
                    rel_path,
                    "D3",
                    offset,
                    format!(
                        "iteration over hash collection `{name}` — ordering is nondeterministic; \
                     use BTreeMap/BTreeSet or sort before iterating"
                    ),
                );
            }
        }
    }
}

/// P1 — panics in protocol-path crates. A panic mid-conversation tears down
/// the session (and in the TCP transport, the connection); protocol code
/// returns typed errors instead.
fn check_p1(rel_path: &str, source: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !P1_SCOPE.iter().any(|p| rel_path.starts_with(p)) {
        return;
    }
    const PATTERNS: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
        ".unwrap_unchecked()",
    ];
    for pat in PATTERNS {
        for offset in find_token(&scanned.masked, pat) {
            if scanned.in_test_region(offset) {
                continue;
            }
            push(
                out,
                scanned,
                source,
                rel_path,
                "P1",
                offset,
                format!(
                    "`{}` in protocol-path code — return a typed error or use an infallible \
                 constructor (allowlist with justification only for proven-unreachable cases)",
                    pat.trim_start_matches('.').trim_end_matches('(')
                ),
            );
        }
    }
}

/// P2 — inline SMTP reply-code literals. Codes carry protocol semantics
/// (4xx retry vs 5xx reject is the whole greylisting mechanism); they must
/// come from `spamward_smtp::reply::codes` so grep and the type system see
/// every use.
fn check_p2(rel_path: &str, source: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if rel_path == REPLY_MODULE {
        return;
    }
    for ctor in ["Reply::new(", "Reply::single("] {
        for offset in find_token(&scanned.masked, ctor) {
            if scanned.in_test_region(offset) {
                continue;
            }
            let args = &scanned.masked[offset + ctor.len()..];
            let first = args.trim_start().chars().next().unwrap_or(' ');
            if first.is_ascii_digit() {
                push(
                    out,
                    scanned,
                    source,
                    rel_path,
                    "P2",
                    offset,
                    format!(
                        "inline SMTP reply code in `{}...)` — use a named constant from \
                     `spamward_smtp::reply::codes` (or a dedicated constructor)",
                        ctor
                    ),
                );
            }
        }
    }
}

/// Files allowed to bind metric/trace name literals: each crate's
/// `metrics.rs`/`obs.rs` module and the instrumentation crate itself.
fn o1_exempt(rel_path: &str) -> bool {
    rel_path.starts_with("crates/obs/")
        || rel_path.ends_with("/metrics.rs")
        || rel_path.ends_with("/obs.rs")
}

/// O1 — metric/trace name string literals outside the crate's
/// `metrics.rs`/`obs` module. Registry names and trace categories are the
/// observability contract; binding them as constants in one module per
/// crate keeps the namespace greppable and typo-proof. Registry recorders
/// take the name as the first argument; a `record(..)` call that takes a
/// dotted category takes it as the second. Telemetry that is off must
/// cost nothing: the world's event record is `EventLog::record(at, ||
/// event)`, whose closure builds nothing while the log is off, and a
/// `record(..)` detail (its third argument) must not be an eager
/// `format!`, which would be formatted for nothing whenever tracing is off.
fn check_o1(rel_path: &str, source: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if o1_exempt(rel_path) {
        return;
    }
    let masked = &scanned.masked;
    const NAME_FIRST: &[&str] = &[
        ".record_counter(",
        ".record_gauge(",
        ".record_histogram(",
        ".record_span(",
        ".record_point(",
        ".record_event(",
    ];
    for pat in NAME_FIRST {
        for offset in find_token(masked, pat) {
            if scanned.in_test_region(offset) {
                continue;
            }
            if next_nonspace_is_quote(source, offset + pat.len()) {
                push(
                    out,
                    scanned,
                    source,
                    rel_path,
                    "O1",
                    offset,
                    format!(
                        "metric name literal in `{}...)` — bind the name as a constant in the \
                     crate's `metrics.rs`/`obs` module so the namespace stays greppable",
                        pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                );
            }
        }
    }
    for offset in find_token(masked, ".record(") {
        if scanned.in_test_region(offset) {
            continue;
        }
        // Single-argument `.record(..)` calls (e.g. `SpanStats::record`)
        // carry no category and are not O1's business.
        let Some(second) = second_arg_offset(masked, offset + ".record(".len()) else {
            continue;
        };
        if next_nonspace_is_quote(source, second) {
            push(
                out,
                scanned,
                source,
                rel_path,
                "O1",
                offset,
                "trace category literal in `record(..)` — bind the dotted category as a \
                 constant in the crate's `metrics.rs`/`obs` module so the namespace stays \
                 greppable"
                    .to_string(),
            );
        }
        if second_arg_offset(masked, second).is_some_and(|third| is_eager_format(masked, third)) {
            push(
                out,
                scanned,
                source,
                rel_path,
                "O1",
                offset,
                "eager `format!` detail in `record(..)` — the tracer renders its detail only \
                 when tracing is on; pass `format_args!(..)` so a disabled tracer formats \
                 nothing"
                    .to_string(),
            );
        }
    }
}

/// Whether the argument starting at `from` in `masked` is a `format!(..)`
/// call (optionally borrowed): a string built before the callee decides
/// whether it needs one.
fn is_eager_format(masked: &str, from: usize) -> bool {
    let arg = masked[from..].trim_start();
    let arg = arg.strip_prefix('&').unwrap_or(arg).trim_start();
    arg.starts_with("format!")
}

/// S1 — manual virtual-time ordering outside the engine crate. `ActorSim`
/// is the single execution substrate: anything that needs events in time
/// order schedules them through the engine, as an actor that returns its
/// next wake-up. A `BinaryHeap` in a file that also handles [`SimTime`] is
/// a hand-rolled event queue; a sort keyed on an attempt/arrival/due
/// timestamp is a hand-rolled scheduler pass. Both reintroduce the
/// duplicate delivery loops the engine migration deleted.
fn check_s1(rel_path: &str, source: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if S1_EXEMPT.iter().any(|p| rel_path.starts_with(p)) {
        return;
    }
    let masked = &scanned.masked;
    // A priority queue is only S1's business when the file also speaks
    // virtual time; a heap of sizes or scores orders nothing temporal.
    if !find_token(masked, "SimTime").is_empty() {
        for offset in find_token(masked, "BinaryHeap") {
            if scanned.in_test_region(offset) {
                continue;
            }
            push(
                out,
                scanned,
                source,
                rel_path,
                "S1",
                offset,
                "`BinaryHeap` in a file handling `SimTime` — a hand-rolled event queue; \
                 schedule through `spamward_sim::ActorSim` (an actor) instead"
                    .to_string(),
            );
        }
    }
    const SORTS: &[&str] =
        &[".sort_by(", ".sort_by_key(", ".sort_unstable_by(", ".sort_unstable_by_key("];
    for pat in SORTS {
        for offset in find_token(masked, pat) {
            if scanned.in_test_region(offset) {
                continue;
            }
            let line = scanned.line_of(offset);
            let text = scanned.line_text(masked, line).to_ascii_lowercase();
            if S1_TIME_KEYS.iter().any(|k| text.contains(k)) {
                push(
                    out,
                    scanned,
                    source,
                    rel_path,
                    "S1",
                    offset,
                    format!(
                        "`{}..)` keyed on a virtual-time field — sorting attempts by timestamp \
                         is scheduling by hand; drive them through `spamward_sim::ActorSim`",
                        pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                );
            }
        }
    }
}

/// Files allowed to bind fault-injection literals: the fault catalog
/// itself, per-crate metrics modules (which name the `net.fault.*` /
/// `mta.breaker.*` / `mta.crash.*` / `greylist.degraded.*` /
/// `greylist.recovery.*` exports), the instrumentation
/// crate, the lint's own sources, and integration-test directories.
fn f1_exempt(rel_path: &str) -> bool {
    rel_path == "crates/net/src/faults.rs"
        || rel_path.starts_with("crates/obs/")
        || rel_path.starts_with("crates/lint/")
        || rel_path.ends_with("/metrics.rs")
        || rel_path.ends_with("/obs.rs")
        || rel_path.starts_with("tests/")
        || rel_path.contains("/tests/")
}

/// Metric-name namespaces owned by the fault-injection layer; the leading
/// quote restricts the scan to string literals, which the fully masked
/// text blanks — so F1 scans a comments-only-blanked copy of the source
/// ([`crate::lexer::mask_comments_only`]).
const F1_NAMESPACES: &[&str] =
    &["\"net.fault", "\"mta.breaker", "\"mta.crash", "\"greylist.degraded", "\"greylist.recovery"];

/// F1 — fault-injection literals outside `net::faults` / metrics modules.
/// Fault probabilities scattered through product code are chaos parameters
/// no profile sweep or doc can see, and inline `net.fault.*`-style name
/// literals fork the observability contract the resilience experiment
/// keys on. Probabilities belong in a [`FaultSpec`] inside the catalog;
/// names belong as constants in the owning crate's `metrics.rs`.
fn check_f1(rel_path: &str, source: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if f1_exempt(rel_path) {
        return;
    }
    let code = crate::lexer::mask_comments_only(source);
    for pat in F1_NAMESPACES {
        let mut from = 0;
        while let Some(pos) = code[from..].find(pat) {
            let offset = from + pos;
            from = offset + 1;
            if scanned.in_test_region(offset) {
                continue;
            }
            push(
                out,
                scanned,
                source,
                rel_path,
                "F1",
                offset,
                format!(
                    "fault metric name literal `{}…` — the fault-injection namespaces are \
                     the observability contract; bind the name as a constant in the crate's \
                     `metrics.rs` and import it",
                    &pat[1..]
                ),
            );
        }
    }
    // A `…prob:` field initialized with a numeric literal is a hard-coded
    // chaos parameter. The masked text keeps numbers but blanks strings
    // and comments, so prose mentions of probabilities cannot match.
    let masked = &scanned.masked;
    let bytes = masked.as_bytes();
    let mut from = 0;
    while let Some(pos) = masked[from..].find("prob") {
        let offset = from + pos;
        from = offset + 1;
        let end = offset + "prob".len();
        // The containing identifier must end exactly at `…prob`.
        if bytes.get(end).is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_') {
            continue;
        }
        // …and be initialized with a numeric literal (`prob: 0.3`), not a
        // type ascription (`prob: f64`) or a forwarded value.
        let rest = masked[end..].trim_start();
        let Some(value) = rest.strip_prefix(':') else { continue };
        if !value.trim_start().starts_with(|c: char| c.is_ascii_digit()) {
            continue;
        }
        if scanned.in_test_region(offset) {
            continue;
        }
        push(
            out,
            scanned,
            source,
            rel_path,
            "F1",
            offset,
            "fault probability literal — declare it in a `FaultSpec` inside the \
             `spamward_net::faults` catalog so profile sweeps and docs see it"
                .to_string(),
        );
    }
}

/// Byte offset just past the first top-level comma after `open`, or `None`
/// if the argument list closes first. Operates on masked text, so commas
/// inside string literals are already blanked out.
fn second_arg_offset(masked: &str, open: usize) -> Option<usize> {
    let bytes = masked.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            b',' if depth == 0 => return Some(i + 1),
            _ => {}
        }
    }
    None
}

/// Whether the first non-whitespace character of the ORIGINAL source at or
/// after `from` is a double quote. The masked text blanks string literals,
/// so literal detection must look at the raw bytes.
fn next_nonspace_is_quote(source: &str, from: usize) -> bool {
    source[from..].chars().find(|c| !c.is_whitespace()) == Some('"')
}

/// Collects identifiers declared as `HashMap`/`HashSet` in `masked` — let
/// bindings, struct fields, and fn params (`name: HashMap<..>`), plus
/// `name = HashMap::new()` / `with_capacity` initializations.
fn hash_collection_names(masked: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for ty in ["HashMap", "HashSet"] {
        for offset in find_token(masked, ty) {
            // Skip over reference sigils so `name: &HashSet<..>` and
            // `name: &mut HashMap<..>` still yield `name`.
            let before = masked[..offset].trim_end();
            // Qualified forms (`name: std::collections::HashMap<..>`) still
            // point back at `name:` once the path prefix is stripped.
            let before = before.strip_suffix("std::collections::").unwrap_or(before).trim_end();
            let before = before.strip_suffix("collections::").unwrap_or(before).trim_end();
            let before = before.strip_suffix("&mut").unwrap_or(before);
            let before = before.strip_suffix('&').unwrap_or(before);
            let before = before.trim_end();
            if let Some(prefix) = before.strip_suffix(':') {
                // `name: HashMap<..>` (skip `::` paths like std::collections::HashMap
                // by stripping a second colon and falling through to ident capture —
                // `use std::collections::HashMap` yields no trailing ident).
                let prefix = prefix.strip_suffix(':').unwrap_or(prefix);
                if let Some(name) = trailing_ident(prefix) {
                    if name != "collections" && name != "std" {
                        names.insert(name);
                    }
                }
            } else if let Some(prefix) = before.strip_suffix('=') {
                // `name = HashMap::new()` / `+=`-style ops end with non-ident, fine.
                if let Some(name) = trailing_ident(prefix.trim_end()) {
                    if name != "mut" {
                        names.insert(name);
                    }
                }
            }
        }
    }
    names
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

/// Whether the token at `offset` is the sequence of a `for .. in` loop
/// (`in name`, `in &name`, `in &mut name`).
fn is_for_loop_target(masked: &str, offset: usize) -> bool {
    let before = masked[..offset].trim_end();
    let before = before.strip_suffix("&mut").unwrap_or(before.strip_suffix('&').unwrap_or(before));
    let before = before.trim_end();
    before.ends_with(" in") || before.ends_with("\nin") || before == "in"
}

pub(crate) fn push(
    out: &mut Vec<Diagnostic>,
    scanned: &ScannedFile,
    source: &str,
    rel_path: &str,
    rule: &'static str,
    offset: usize,
    message: String,
) {
    let line = scanned.line_of(offset);
    out.push(Diagnostic {
        rule,
        path: rel_path.to_string(),
        line,
        line_text: scanned.line_text(source, line).trim().to_string(),
        message,
    });
}

/// One diagnostic per (rule, line), sorted by line then rule.
pub(crate) fn dedupe(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        check_file(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d1_flags_instant_now_outside_wall_module() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert!(rules_hit("crates/smtp/src/x.rs", src).contains(&"D1"));
        assert!(rules_hit("crates/sim/src/wall.rs", src).is_empty());
    }

    #[test]
    fn d1_flags_grouped_import() {
        let src = "use std::time::{Duration, Instant};";
        assert!(rules_hit("crates/mta/src/x.rs", src).contains(&"D1"));
        let clean = "use std::time::Duration;";
        assert!(rules_hit("crates/mta/src/x.rs", clean).is_empty());
    }

    #[test]
    fn d2_flags_thread_rng() {
        let src = "fn f() { let r = rand::thread_rng(); }";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["D2"]);
    }

    #[test]
    fn d3_flags_hash_iteration_in_scope() {
        let src = "fn f(m: HashMap<u32, u32>) { for (k, v) in &m { use_it(k, v); } }";
        assert_eq!(rules_hit("crates/analysis/src/x.rs", src), vec!["D3"]);
        // Same code outside D3 scope is fine.
        assert!(rules_hit("crates/lint/src/x.rs", src).is_empty());
        // Lookup-only use is fine.
        let lookup = "fn f(m: HashMap<u32, u32>) { let _ = m.get(&1); }";
        assert!(rules_hit("crates/analysis/src/x.rs", lookup).is_empty());
    }

    #[test]
    fn d3_sees_through_qualified_paths() {
        let src = "fn f() { let m: std::collections::HashMap<u32, u32> = Default::default(); \
                   for (_, v) in m.iter() { use_it(v); } }";
        assert_eq!(rules_hit("crates/mta/src/x.rs", src), vec!["D3"]);
    }

    #[test]
    fn d3_flags_method_iteration() {
        let src = "struct S { m: HashSet<u32> }\nimpl S { fn g(&self) -> Vec<u32> { self.m.iter().copied().collect() } }";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["D3"]);
    }

    #[test]
    fn p1_flags_unwrap_in_protocol_crates_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_hit("crates/smtp/src/x.rs", src), vec!["P1"]);
        assert!(rules_hit("crates/analysis/src/x.rs", src).is_empty());
    }

    #[test]
    fn p1_ignores_tests_and_docs() {
        let src = "/// ```\n/// x.unwrap();\n/// ```\nfn f() {}\n#[cfg(test)]\nmod tests { fn t() { None::<u8>.unwrap(); } }";
        assert!(rules_hit("crates/smtp/src/x.rs", src).is_empty());
    }

    #[test]
    fn p2_flags_inline_reply_codes() {
        let src = "fn f() -> Reply { Reply::single(554, \"no\") }";
        assert_eq!(rules_hit("crates/mta/src/x.rs", src), vec!["P2"]);
        let named = "fn f() -> Reply { Reply::single(codes::TRANSACTION_FAILED, \"no\") }";
        assert!(rules_hit("crates/mta/src/x.rs", named).is_empty());
        assert!(rules_hit("crates/smtp/src/reply.rs", src).is_empty());
    }

    #[test]
    fn o1_flags_name_literals_outside_metrics_modules() {
        let src = "fn f(reg: &mut Registry) { reg.record_counter(\"smtp.cmd\", 1); }";
        assert_eq!(rules_hit("crates/smtp/src/wire.rs", src), vec!["O1"]);
        // The crate's metrics module and the obs crate itself are exempt.
        assert!(rules_hit("crates/smtp/src/metrics.rs", src).is_empty());
        assert!(rules_hit("crates/obs/src/registry.rs", src).is_empty());
        // Constant names are the sanctioned form.
        let clean = "fn f(reg: &mut Registry) { reg.record_counter(COMMANDS, 1); }";
        assert!(rules_hit("crates/smtp/src/wire.rs", clean).is_empty());
    }

    #[test]
    fn o1_flags_trace_category_literals_only() {
        let src = "fn f(t: &mut Tracer) { t.record(now, \"smtp.reject\", detail); }";
        assert_eq!(rules_hit("crates/mta/src/world.rs", src), vec!["O1"]);
        let constant = "fn f(t: &mut Tracer) { t.record(now, TRACE_SMTP_REJECT, detail); }";
        assert!(rules_hit("crates/mta/src/world.rs", constant).is_empty());
        // Single-argument record() calls (span stats) carry no category.
        let span = "fn f(s: &mut SpanStats) { s.record(elapsed); }";
        assert!(rules_hit("crates/mta/src/world.rs", span).is_empty());
    }

    #[test]
    fn o1_flags_eager_format_trace_details() {
        let eager = "fn f(t: &mut Tracer) { t.record(now, TRACE_DNS_MX, format!(\"{d}: {n}\")); }";
        assert_eq!(rules_hit("crates/mta/src/world.rs", eager), vec!["O1"]);
        let borrowed = "fn f(t: &mut Tracer) { t.record(now, TRACE_DNS_MX, &format!(\"{d}\")); }";
        assert_eq!(rules_hit("crates/mta/src/world.rs", borrowed), vec!["O1"]);
        // Lazy details are the sanctioned form.
        let lazy = "fn f(t: &mut Tracer) { t.record(now, TRACE_DNS_MX, format_args!(\"{d}\")); }";
        assert!(rules_hit("crates/mta/src/world.rs", lazy).is_empty());
        let plain = "fn f(t: &mut Tracer) { t.record(now, TRACE_FAULT, \"boundary\"); }";
        assert!(rules_hit("crates/mta/src/world.rs", plain).is_empty());
        // A `format!` inside another argument is not the detail.
        let nested = "fn f(t: &mut Tracer) { t.record(at(format!(\"x\")), TRACE_FAULT, d); }";
        assert!(rules_hit("crates/mta/src/world.rs", nested).is_empty());
    }

    #[test]
    fn s1_flags_heap_only_alongside_simtime() {
        let heap = "fn f(q: &mut BinaryHeap<(SimTime, u64)>) { q.pop(); }";
        assert_eq!(rules_hit("crates/mta/src/x.rs", heap), vec!["S1"]);
        // The engine crate owns the sanctioned time-ordered queue.
        assert!(rules_hit("crates/sim/src/event.rs", heap).is_empty());
        // A heap with no virtual time in sight orders nothing temporal.
        let sizes = "fn f(q: &mut BinaryHeap<u64>) { q.pop(); }";
        assert!(rules_hit("crates/mta/src/x.rs", sizes).is_empty());
    }

    #[test]
    fn s1_flags_timestamp_keyed_sorts() {
        let src = "fn f(attempts: &mut Vec<(u64, u64)>) { attempts.sort_by_key(|a| a.0); }";
        assert_eq!(rules_hit("crates/botnet/src/x.rs", src), vec!["S1"]);
        // Sorting by a non-temporal key is not scheduling.
        let prefs = "fn f(mxs: &mut Vec<(u16, u32)>) { mxs.sort_by_key(|m| m.0); }";
        assert!(rules_hit("crates/botnet/src/x.rs", prefs).is_empty());
    }

    #[test]
    fn token_boundaries_respected() {
        // `MyInstant::nowhere` must not trip D1.
        let src = "fn f() { MyInstant::nowhere(); }";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn f1_flags_fault_name_literals_outside_sanctioned_modules() {
        let src = "const TRIPS: &str = \"mta.breaker.trips\";";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["F1"]);
        // The fault catalog, metrics modules and the obs crate are exempt.
        assert!(rules_hit("crates/net/src/faults.rs", src).is_empty());
        assert!(rules_hit("crates/core/src/metrics.rs", src).is_empty());
        assert!(rules_hit("crates/obs/src/registry.rs", src).is_empty());
        // Importing the constant is the sanctioned form.
        let clean = "use crate::metrics::BREAKER_TRIPS;\nfn f(reg: &Registry) { let _ = reg.counter(BREAKER_TRIPS); }";
        assert!(rules_hit("crates/core/src/x.rs", clean).is_empty());
    }

    #[test]
    fn f1_covers_all_five_fault_namespaces() {
        for name in [
            "net.fault.outage",
            "mta.breaker.trips",
            "mta.crash.events",
            "greylist.degraded.fail_open",
            "greylist.recovery.entries_lost",
        ] {
            let src = format!("fn f(reg: &Registry) {{ let _ = reg.counter(\"{name}\"); }}");
            assert_eq!(rules_hit("crates/mta/src/x.rs", &src), vec!["F1"], "{name}");
        }
        // Neighboring namespaces are O1's business, not F1's.
        let other = "const X: &str = \"smtp.cmd.total\";";
        assert!(rules_hit("crates/core/src/x.rs", other).is_empty());
    }

    #[test]
    fn f1_flags_probability_literals_but_not_ascriptions() {
        let src = "fn f() -> Availability { Availability::Flaky { down_prob: 0.3 } }";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["F1"]);
        // Type ascriptions and forwarded values are not hard-coded chaos.
        let decl = "pub struct S { pub down_prob: f64 }";
        assert!(rules_hit("crates/core/src/x.rs", decl).is_empty());
        let forwarded = "fn f(spec: &Spec) -> Availability { Availability::Flaky { down_prob: spec.down_prob } }";
        assert!(rules_hit("crates/core/src/x.rs", forwarded).is_empty());
        // `prob` mid-identifier is not a probability field.
        let prose = "fn f() { let problem_count: u32 = 3; use_it(problem_count); }";
        assert!(rules_hit("crates/core/src/x.rs", prose).is_empty());
    }

    #[test]
    fn f1_ignores_tests_and_comments() {
        let src = "// documented as \"net.fault.boundary_events\" with prob: 0.5\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   let _ = (\"net.fault.x\", Availability::Flaky { down_prob: 0.9 });\n    }\n}";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
        // Integration-test directories are out of scope entirely.
        let lit = "const X: &str = \"net.fault.outage_timeouts\";";
        assert!(rules_hit("tests/determinism.rs", lit).is_empty());
        assert!(rules_hit("crates/bench/tests/cli.rs", lit).is_empty());
    }
}

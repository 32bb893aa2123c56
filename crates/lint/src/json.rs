//! Machine-readable report rendering for `--json`.
//!
//! The schema is deliberately tiny and hand-rendered (the workspace has no
//! serialization crate), frozen by `crates/lint/tests/lint_cli.rs`:
//!
//! ```json
//! {
//!   "version": 1,
//!   "clean": false,
//!   "files_scanned": 120,
//!   "suppressed": 8,
//!   "diagnostics": [
//!     {"rule": "C1", "path": "crates/mta/src/send.rs", "line": 12,
//!      "message": "…", "line_text": "…"}
//!   ]
//! }
//! ```
//!
//! Ordering is stable: diagnostics are sorted by `(path, line, rule)`
//! before the report reaches this module, keys are emitted in a fixed
//! order, and the output ends with a single `\n`. CI archives the output
//! as `lint-report.json`.

use crate::LintReport;

/// Schema version; bump when keys change shape.
pub const SCHEMA_VERSION: u32 = 1;

/// Renders the report as the stable JSON document described above.
pub fn render(report: &LintReport) -> String {
    let mut out = String::with_capacity(256 + report.diagnostics.len() * 160);
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"clean\": {},\n", report.is_clean()));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"suppressed\": {},\n", report.suppressed.len()));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"line_text\": {}}}",
            escape(d.rule),
            escape(&d.path),
            d.line,
            escape(&d.message),
            escape(&d.line_text)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON string escaping (quotes, backslash, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    #[test]
    fn renders_stable_document() {
        let mut report = LintReport { files_scanned: 2, ..LintReport::default() };
        report.diagnostics.push(Diagnostic {
            rule: "C1",
            path: "crates/mta/src/send.rs".into(),
            line: 3,
            line_text: "use std::sync::Mutex;".into(),
            message: "concurrency \"primitive\"".into(),
        });
        let doc = render(&report);
        assert!(doc.starts_with("{\n  \"version\": 1,\n  \"clean\": false,\n"));
        assert!(doc.contains("\"rule\": \"C1\""));
        assert!(doc.contains("\\\"primitive\\\""));
        assert!(doc.ends_with("]\n}\n"));
        // Deterministic: same input, same bytes.
        assert_eq!(doc, render(&report));
    }

    #[test]
    fn empty_report_is_clean_with_empty_array() {
        let doc = render(&LintReport::default());
        assert!(doc.contains("\"clean\": true"));
        assert!(doc.contains("\"diagnostics\": []"));
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\nb\t\u{1}"), "\"a\\nb\\t\\u0001\"");
    }
}

//! Typed tables with plain-text, CSV and canonical-JSON rendering.

use std::fmt;

use crate::json::{csv_field, json_array, json_string};

/// A typed table with a header row — the unit every paper table (and the
/// harness [`Report`](https://docs.rs) tables field) is built from.
///
/// Renders three ways: `Display` gives the aligned monospace form `repro`
/// prints, [`Table::to_csv`] gives RFC-4180 rows for external tooling, and
/// [`Table::to_json`] gives a canonical JSON object whose bytes are stable
/// across runs and platforms (tests and CI pin them).
///
/// # Example
///
/// ```
/// use spamward_analysis::Table;
/// let mut t = Table::new(vec!["MTA", "max queue (days)"]);
/// t.row(vec!["sendmail".into(), "5".into()]);
/// t.row(vec!["exchange".into(), "2".into()]);
/// let out = t.to_string();
/// assert!(out.contains("sendmail"));
/// assert!(t.to_csv().starts_with("MTA,max queue (days)\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

/// Former name of [`Table`], kept so existing callers and docs keep
/// compiling; the type has always rendered as ASCII via `Display`.
pub type AsciiTable = Table;

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: Vec<&str>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers: headers.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: &str) -> Self {
        self.title = Some(title.to_owned());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// The title, if one was set.
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }

    /// Looks up the cell at `(row_label, column)` where `row_label` matches
    /// the first cell of a row and `column` a header name.
    pub fn cell(&self, row_label: &str, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        let row = self.rows.iter().find(|r| r[0] == row_label)?;
        row.get(col).map(String::as_str)
    }

    /// Renders the table as RFC-4180 CSV: a header line then one line per
    /// row, fields quoted only when they contain delimiters.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let line =
            |cells: &[String]| cells.iter().map(|c| csv_field(c)).collect::<Vec<_>>().join(",");
        out.push_str(&line(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a canonical JSON object:
    /// `{"title":...,"headers":[...],"rows":[[...],...]}` with `null` for a
    /// missing title. Key order is fixed; bytes are deterministic.
    pub fn to_json(&self) -> String {
        let title = match &self.title {
            Some(t) => json_string(t),
            None => "null".to_owned(),
        };
        let headers = json_array(self.headers.iter().map(|h| json_string(h)));
        let rows =
            json_array(self.rows.iter().map(|r| json_array(r.iter().map(|c| json_string(c)))));
        format!("{{\"title\":{title},\"headers\":{headers},\"rows\":{rows}}}")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        if let Some(title) = &self.title {
            writeln!(f, "== {title} ==")?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]).with_title("Demo");
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "2".into()]);
        let out = t.to_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "== Demo ==");
        assert!(lines[1].starts_with("name"));
        assert!(lines[2].chars().all(|c| c == '-'));
        // Columns align: "value" column starts at the same offset in all rows.
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].len().max(col), lines[3].len());
        assert!(lines[4].len() > col);
        assert_eq!(lines.len(), 5, "title, header, rule and two rows");
    }

    #[test]
    fn accessors_expose_structure() {
        let mut t = Table::new(vec!["family", "blocked"]).with_title("T");
        t.row(vec!["Kelihos".into(), "yes".into()]);
        assert_eq!(t.title(), Some("T"));
        assert_eq!(t.cell("Kelihos", "blocked"), Some("yes"));
        assert_eq!(t.cell("Kelihos", "missing"), None);
        assert_eq!(t.cell("Cutwail", "blocked"), None);
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let mut t = Table::new(vec!["name", "note"]);
        t.row(vec!["plain".into(), "a,b".into()]);
        assert_eq!(t.to_csv(), "name,note\nplain,\"a,b\"\n");
    }

    #[test]
    fn json_is_canonical() {
        let mut t = Table::new(vec!["a", "b"]).with_title("T \"x\"");
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"T \\\"x\\\"\",\"headers\":[\"a\",\"b\"],\"rows\":[[\"1\",\"2\"]]}"
        );
        let bare = Table::new(vec!["only"]);
        assert_eq!(bare.to_json(), "{\"title\":null,\"headers\":[\"only\"],\"rows\":[]}");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panics() {
        let _ = Table::new(vec![]);
    }
}

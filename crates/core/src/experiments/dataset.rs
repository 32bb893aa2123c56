//! Table I — the malware dataset inventory.

use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report};
use spamward_analysis::Table;
use spamward_botnet::{MalwareFamily, BOTNET_FRACTION_OF_GLOBAL_SPAM};

/// Table I as produced data.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// One row per family: name, % of 2014 botnet spam, sample count.
    pub rows: Vec<(String, f64, u32)>,
    /// The families' combined share of botnet spam (paper: 93.02%).
    pub total_botnet_pct: f64,
    /// Their combined share of global spam (paper: 70.69%).
    pub total_global_pct: f64,
}

/// Regenerates Table I from the family models.
pub fn run() -> Table1 {
    let rows = MalwareFamily::table_i()
        .into_iter()
        .map(|r| (r.family.name().to_owned(), r.botnet_spam_pct, r.samples))
        .collect();
    Table1 {
        rows,
        total_botnet_pct: MalwareFamily::total_botnet_pct(),
        total_global_pct: MalwareFamily::total_global_pct(),
    }
}

impl Table1 {
    /// Table I as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["Malware Family", "% of Botnet Spam (2014)", "Samples"])
            .with_title("Table I: malware samples used in the experiments");
        for (name, pct, samples) in &self.rows {
            t.row(vec![name.clone(), format!("{pct:.2}%"), samples.to_string()]);
        }
        t.row(vec![
            "Total Botnet Spam".into(),
            format!("{:.2}%", self.total_botnet_pct),
            self.rows.iter().map(|r| r.2).sum::<u32>().to_string(),
        ]);
        t.row(vec![
            "Total Global Spam".into(),
            format!("{:.2}%", self.total_global_pct),
            String::new(),
        ]);
        t
    }
}

/// Registry entry for Table I. The inventory is a fixed catalogue, so the
/// run ignores seed and scale.
pub struct Table1Experiment;

impl Experiment for Table1Experiment {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Malware dataset inventory"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table I"
    }

    fn seedable(&self) -> bool {
        false
    }

    fn observe(&self, _config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let t = run();
        crate::metrics::collect_table1(&t, &mut obs.registry);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact());
        report
            .push_table(t.table())
            .push_text(&format!(
                "(botnets account for {:.0}% of global spam)",
                BOTNET_FRACTION_OF_GLOBAL_SPAM * 100.0
            ))
            .push_scalar("total botnet spam (%)", t.total_botnet_pct)
            .push_scalar("total global spam (%)", t.total_global_pct);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_totals() {
        let t = run();
        assert_eq!(t.rows.len(), 4);
        assert!((t.total_botnet_pct - 93.02).abs() < 1e-9);
        assert!((t.total_global_pct - 70.69).abs() < 0.01);
    }
}

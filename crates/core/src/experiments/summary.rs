//! §VI headline numbers — what fraction of spam either defense stops.
//!
//! The summary consumes the Table II experiment through the harness
//! registry rather than re-running the efficacy module directly: each
//! family's 0/1 block verdict is read back from the sibling report's
//! scalars, so this module stays decoupled from the matrix internals.

use crate::experiments::efficacy::EfficacyExperiment;
use crate::harness::{self, Experiment, HarnessConfig, HarnessError, Obs, Report};
use spamward_analysis::reduce::ordered_sum;
use spamward_analysis::Table;
use spamward_botnet::{MalwareFamily, BOTNET_FRACTION_OF_GLOBAL_SPAM};

/// The §VI aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryResult {
    /// Botnet-spam share blocked by nolisting alone.
    pub nolisting_botnet_pct: f64,
    /// Botnet-spam share blocked by greylisting alone.
    pub greylisting_botnet_pct: f64,
    /// Botnet-spam share blocked by either (union).
    pub either_botnet_pct: f64,
    /// Global-spam share blocked by either (the paper's "over 70%").
    pub either_global_pct: f64,
    /// Per-family rows: (name, botnet %, blocked-by-nolisting,
    /// blocked-by-greylisting).
    pub rows: Vec<(String, f64, bool, bool)>,
}

/// Computes the summary from a fresh Table II run, obtained through the
/// registry, folding that run's metrics and trace lines (non-empty only
/// when `config.trace` is set) into `obs`. Propagates the inner run's
/// harness error (e.g. an exhausted event budget), which names table2.
pub fn run(config: &HarnessConfig, obs: &mut Obs) -> Result<SummaryResult, HarnessError> {
    let table2 = harness::find("table2").expect("table2 is registered");
    let report = table2.run(config)?;
    obs.registry.merge(report.metrics());
    obs.trace_lines.extend_from_slice(report.trace_lines());
    let blocks = |defense: &str, family: MalwareFamily| {
        report.scalar(&format!("{defense} blocks {}", family.name())) == Some(1.0)
    };

    let mut rows = Vec::new();
    let mut either_parts = Vec::new();
    for family in MalwareFamily::ALL {
        let nl = blocks("nolisting", family);
        let gl = blocks("greylisting", family);
        if nl || gl {
            either_parts.push(family.botnet_spam_pct());
        }
        rows.push((family.name().to_owned(), family.botnet_spam_pct(), nl, gl));
    }
    let either = ordered_sum(either_parts);
    Ok(SummaryResult {
        nolisting_botnet_pct: report
            .scalar("nolisting blocked (% of botnet spam)")
            .expect("table2 reports the nolisting share"),
        greylisting_botnet_pct: report
            .scalar("greylisting blocked (% of botnet spam)")
            .expect("table2 reports the greylisting share"),
        either_botnet_pct: either,
        either_global_pct: either * BOTNET_FRACTION_OF_GLOBAL_SPAM,
        rows,
    })
}

impl SummaryResult {
    /// The per-family verdicts as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["Family", "Botnet spam", "Nolisting", "Greylisting"])
            .with_title("Section VI summary: spam blocked per defense");
        for (name, pct, nl, gl) in &self.rows {
            let mark = |b: &bool| if *b { "blocks".to_owned() } else { "-".to_owned() };
            t.row(vec![name.clone(), format!("{pct:.2}%"), mark(nl), mark(gl)]);
        }
        t
    }
}

/// Registry entry for the §VI headline aggregate.
pub struct SummaryExperiment;

impl Experiment for SummaryExperiment {
    fn id(&self) -> &'static str {
        "summary"
    }

    fn title(&self) -> &'static str {
        "Headline blocked-spam shares"
    }

    fn paper_artifact(&self) -> &'static str {
        "§VI headline"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let result = run(config, obs)?;
        crate::metrics::collect_summary(&result, &mut obs.registry);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(EfficacyExperiment::config(config).seed);
        report
            .push_table(result.table())
            .push_scalar("nolisting alone (% of botnet spam)", result.nolisting_botnet_pct)
            .push_scalar("greylisting alone (% of botnet spam)", result.greylisting_botnet_pct)
            .push_scalar("either defense (% of botnet spam)", result.either_botnet_pct)
            .push_scalar("either defense (% of global spam)", result.either_global_pct);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    fn quick() -> SummaryResult {
        run(&HarnessConfig { scale: Scale::Quick, ..Default::default() }, &mut Obs::default())
            .expect("quick summary completes")
    }

    #[test]
    fn headline_over_70_percent() {
        let s = quick();
        // All four families are blocked by at least one technique.
        assert!((s.either_botnet_pct - 93.02).abs() < 1e-9);
        assert!(s.either_global_pct > 70.0, "got {}", s.either_global_pct);
        assert!(s.either_global_pct < 71.0);
    }

    #[test]
    fn greylisting_beats_nolisting() {
        // §VI: "Between the two, greylisting seems to be more effective".
        let s = quick();
        assert!(s.greylisting_botnet_pct > s.nolisting_botnet_pct);
        assert!((s.greylisting_botnet_pct - 56.69).abs() < 1e-9);
        assert!((s.nolisting_botnet_pct - 36.33).abs() < 1e-9);
    }

    #[test]
    fn no_family_escapes_both() {
        let s = quick();
        for (name, _, nl, gl) in &s.rows {
            assert!(nl | gl, "{name} escapes both defenses");
        }
    }
}

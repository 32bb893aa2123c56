//! Table IV — default retransmission schedules of popular MTAs.

use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report};
use spamward_analysis::Table;
use spamward_mta::MtaProfile;
use spamward_sim::SimDuration;

/// One Table IV row.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRow {
    /// MTA name.
    pub mta: String,
    /// Retry times within the first ten hours, in minutes.
    pub retransmission_mins: Vec<f64>,
    /// Queue lifetime in days.
    pub max_queue_days: f64,
}

/// The regenerated Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulesResult {
    /// One row per MTA, paper order.
    pub rows: Vec<ScheduleRow>,
}

/// Regenerates Table IV from the executable schedules.
pub fn run() -> SchedulesResult {
    // Table IV's exim row lists 607.5 min, slightly past ten sharp hours;
    // use the paper's effective window.
    let horizon = SimDuration::from_mins(630);
    let rows = MtaProfile::table_iv()
        .into_iter()
        .map(|p| ScheduleRow {
            mta: p.name.clone(),
            retransmission_mins: p
                .schedule
                .retries_within(horizon)
                .iter()
                .map(|d| d.as_mins_f64())
                .collect(),
            max_queue_days: p.max_queue_time.as_secs_f64() / 86_400.0,
        })
        .collect();
    SchedulesResult { rows }
}

impl SchedulesResult {
    /// RFC 5321 suggests giving up only after 4–5 days; the paper singles
    /// out exchange as the one below that. Returns the non-compliant rows.
    pub fn below_rfc_queue_time(&self) -> Vec<&ScheduleRow> {
        self.rows.iter().filter(|r| r.max_queue_days < 4.0).collect()
    }
}

fn fmt_mins(m: f64) -> String {
    if (m - m.round()).abs() < 1e-9 {
        format!("{}", m.round() as u64)
    } else {
        format!("{m:.1}")
    }
}

impl SchedulesResult {
    /// Table IV as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["MTA", "Retransmission time (min)", "Max queue time (days)"])
            .with_title("Table IV: retransmission times of popular MTA servers (first 10 h)");
        for r in &self.rows {
            let mut shown: Vec<String> =
                r.retransmission_mins.iter().take(10).map(|&m| fmt_mins(m)).collect();
            if r.retransmission_mins.len() > 10 {
                shown.push(format!("... ({} in 10h)", r.retransmission_mins.len()));
            }
            t.row(vec![r.mta.clone(), shown.join(", "), fmt_mins(r.max_queue_days)]);
        }
        t
    }
}

/// Registry entry for Table IV. The schedules are fixed catalogue data, so
/// the run ignores seed and scale.
pub struct SchedulesExperiment;

impl Experiment for SchedulesExperiment {
    fn id(&self) -> &'static str {
        "table4"
    }

    fn title(&self) -> &'static str {
        "Default MTA retransmission schedules"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table IV"
    }

    fn seedable(&self) -> bool {
        false
    }

    fn observe(&self, _config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let result = run();
        crate::metrics::collect_schedules(&result, &mut obs.registry);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact());
        report
            .push_table(result.table())
            .push_scalar("MTAs", result.rows.len() as f64)
            .push_scalar("below RFC queue guidance", result.below_rfc_queue_time().len() as f64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_mtas_in_paper_order() {
        let r = run();
        let names: Vec<&str> = r.rows.iter().map(|x| x.mta.as_str()).collect();
        assert_eq!(names, vec!["sendmail", "exim", "postfix", "qmail", "courier", "exchange"]);
    }

    #[test]
    fn ladders_match_table_iv_prefixes() {
        let r = run();
        let mins = |name: &str, n: usize| -> Vec<u64> {
            r.rows
                .iter()
                .find(|x| x.mta == name)
                .unwrap()
                .retransmission_mins
                .iter()
                .take(n)
                .map(|&m| m.round() as u64)
                .collect()
        };
        assert_eq!(mins("sendmail", 6), vec![10, 20, 30, 40, 50, 60]);
        assert_eq!(mins("postfix", 8), vec![5, 10, 15, 20, 25, 30, 45, 60]);
        assert_eq!(mins("qmail", 5), vec![7, 27, 60, 107, 167]); // 6.6, 26.6, ...
        assert_eq!(mins("courier", 6), vec![5, 10, 15, 30, 35, 40]);
        assert_eq!(mins("exchange", 4), vec![15, 30, 45, 60]);
        assert_eq!(mins("exim", 12).last().copied(), Some(608)); // 607.5 rounded
    }

    #[test]
    fn queue_lifetimes_match() {
        let r = run();
        let days = |name: &str| r.rows.iter().find(|x| x.mta == name).unwrap().max_queue_days;
        assert_eq!(days("sendmail"), 5.0);
        assert_eq!(days("exim"), 4.0);
        assert_eq!(days("postfix"), 5.0);
        assert_eq!(days("qmail"), 7.0);
        assert_eq!(days("courier"), 7.0);
        assert_eq!(days("exchange"), 2.0);
    }

    #[test]
    fn only_exchange_below_rfc_guidance() {
        let r = run();
        let below = r.below_rfc_queue_time();
        assert_eq!(below.len(), 1);
        assert_eq!(below[0].mta, "exchange");
    }
}

//! Seed-variance analysis: every headline number as mean ± 95% CI.
//!
//! The paper's numbers are single measurements of a live system; ours are
//! draws from a seeded simulator, so we can quantify how much each
//! reported quantity moves across worlds. Tight intervals mean the
//! reproduction's conclusions don't hinge on a lucky seed.
//!
//! The sweep consumes the Fig. 2 and Fig. 5 experiments through the
//! harness registry: each seed becomes a [`HarnessConfig`] and the tracked
//! quantities are read back from the sibling reports' scalars.

use crate::harness::{self, Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use spamward_analysis::ci::ConfidenceInterval;
use spamward_analysis::Table;
use spamward_sim::shard::run_partitioned;

/// Configuration of the variance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceConfig {
    /// Seeds to run (default: 12 consecutive seeds).
    pub seeds: Vec<u64>,
    /// Worker threads.
    pub workers: usize,
}

impl Default for VarianceConfig {
    fn default() -> Self {
        VarianceConfig { seeds: (100..112).collect(), workers: 4 }
    }
}

/// One tracked quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceRow {
    /// Quantity name.
    pub quantity: String,
    /// The paper's published value.
    pub paper_value: f64,
    /// Mean ± CI across seeds.
    pub ci: ConfidenceInterval,
}

/// The variance report.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceResult {
    /// One row per tracked quantity.
    pub rows: Vec<VarianceRow>,
}

impl VarianceResult {
    /// Looks a row up by name.
    pub fn row(&self, quantity: &str) -> Option<&VarianceRow> {
        self.rows.iter().find(|r| r.quantity == quantity)
    }
}

/// Runs the Fig. 2 and Fig. 5 headline quantities across seeds. Each
/// per-seed run uses [`Scale::Quick`] — the sweep trades per-run size for
/// seed count, exactly as the old hand-tuned population knobs did.
pub fn run(config: &VarianceConfig) -> VarianceResult {
    // Per-seed runs never set an event budget, so an Err here is a bug.
    let per_seed =
        |seed: u64| HarnessConfig { seed: Some(seed), scale: Scale::Quick, ..Default::default() };

    let fig2 = harness::find("fig2").expect("fig2 is registered");
    let fig2_runs = run_partitioned(config.seeds.clone(), config.workers, move |seed| {
        let r = fig2.run(&per_seed(seed)).expect("unbudgeted fig2 run completes");
        (
            r.scalar("nolisting share (%)").expect("fig2 reports the nolisting share"),
            r.scalar("one-MX share (%)").expect("fig2 reports the one-MX share"),
            r.scalar("detector precision").expect("fig2 reports the detector precision"),
        )
    });
    let fig5 = harness::find("fig5").expect("fig5 is registered");
    let fig5_runs = run_partitioned(config.seeds.clone(), config.workers, move |seed| {
        let r = fig5.run(&per_seed(seed)).expect("unbudgeted fig5 run completes");
        (
            r.scalar("delivered <10 min (%)").expect("fig5 reports the <10 min share"),
            r.scalar("abandonment (%)").expect("fig5 reports the abandonment rate"),
        )
    });

    let ci = |values: Vec<f64>| ConfidenceInterval::ci95(&values).expect("enough seeds");
    let rows = vec![
        VarianceRow {
            quantity: "fig2 nolisting share (%)".into(),
            paper_value: 0.52,
            ci: ci(fig2_runs.iter().map(|r| r.0).collect()),
        },
        VarianceRow {
            quantity: "fig2 one-MX share (%)".into(),
            paper_value: 47.73,
            ci: ci(fig2_runs.iter().map(|r| r.1).collect()),
        },
        VarianceRow {
            quantity: "fig2 detector precision".into(),
            paper_value: f64::NAN, // the paper could not measure this
            ci: ci(fig2_runs.iter().map(|r| r.2).collect()),
        },
        VarianceRow {
            quantity: "fig5 delivered <10min (%)".into(),
            paper_value: 50.0,
            ci: ci(fig5_runs.iter().map(|r| r.0).collect()),
        },
        VarianceRow {
            quantity: "fig5 abandonment (%)".into(),
            paper_value: f64::NAN,
            ci: ci(fig5_runs.iter().map(|r| r.1).collect()),
        },
    ];
    VarianceResult { rows }
}

impl VarianceResult {
    /// The per-quantity intervals as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["Quantity", "Paper", "Measured (mean ± 95% CI)"])
            .with_title("Seed variance of the headline quantities");
        for r in &self.rows {
            let paper = if r.paper_value.is_nan() {
                "n/a".to_owned()
            } else {
                format!("{:.2}", r.paper_value)
            };
            t.row(vec![r.quantity.clone(), paper, r.ci.to_string()]);
        }
        t
    }
}

/// Registry entry for the seed-variance sweep. The harness seed shifts the
/// base of the seed window; the scale knob sets how many seeds it spans.
pub struct VarianceExperiment;

impl VarianceExperiment {
    /// The module config a harness config maps to.
    fn config(harness: &HarnessConfig) -> VarianceConfig {
        let base = harness.seed_or(100);
        let span = match harness.scale {
            Scale::Paper => 12,
            Scale::Quick => 6,
        };
        // The window wraps past u64::MAX rather than overflowing into an
        // empty seed list.
        VarianceConfig { seeds: (0..span).map(|i| base.wrapping_add(i)).collect(), workers: 4 }
    }
}

impl Experiment for VarianceExperiment {
    fn id(&self) -> &'static str {
        "variance"
    }

    fn title(&self) -> &'static str {
        "Seed variance of the headline quantities"
    }

    fn paper_artifact(&self) -> &'static str {
        "DESIGN.md variance"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let result = run(&Self::config(config));
        crate::metrics::collect_variance(&result, &mut obs.registry);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(config.seed_or(100));
        report.push_table(result.table());
        for row in &result.rows {
            report.push_scalar(&format!("mean: {}", row.quantity), row.ci.mean);
            report.push_scalar(&format!("ci95 half-width: {}", row.quantity), row.ci.half_width);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> VarianceResult {
        run(&VarianceConfig { seeds: (100..106).collect(), ..Default::default() })
    }

    #[test]
    fn paper_values_inside_or_near_intervals() {
        let r = quick();
        // The one-MX share is set by construction; its CI must cover the
        // paper's value.
        let one_mx = r.row("fig2 one-MX share (%)").unwrap();
        assert!(
            (one_mx.ci.mean - 47.73).abs() < 3.0,
            "one-MX mean {} drifted from the generator mix",
            one_mx.ci.mean
        );
        // Fig. 5's "about half in 10 minutes" lands in a sane band.
        let ten = r.row("fig5 delivered <10min (%)").unwrap();
        assert!((30.0..=80.0).contains(&ten.ci.mean), "{}", ten.ci.mean);
    }

    #[test]
    fn intervals_are_tight_enough_to_be_meaningful() {
        let r = quick();
        for row in &r.rows {
            assert!(row.ci.n >= 6);
            assert!(
                row.ci.half_width <= row.ci.mean.abs().max(1.0),
                "{}: CI wider than the mean ({})",
                row.quantity,
                row.ci
            );
        }
    }

    #[test]
    fn seed_window_wraps_at_the_top_seed() {
        for (scale, span) in [(Scale::Paper, 12), (Scale::Quick, 6)] {
            let harness = HarnessConfig { seed: Some(u64::MAX), scale, ..Default::default() };
            let seeds = VarianceExperiment::config(&harness).seeds;
            let expected: Vec<u64> = std::iter::once(u64::MAX).chain(0..span - 1).collect();
            assert_eq!(seeds, expected, "{scale:?}");
        }
    }
}

//! Figs. 3 and 4 — Kelihos versus the greylisting threshold.
//!
//! Fig. 3 plots the CDF of Kelihos' spam delivery delay under a 5 s and a
//! 300 s threshold; the curves nearly coincide because the malware never
//! retries before ~300 s regardless. Fig. 4 raises the threshold to
//! 21 600 s and plots every retransmission over a ~25 h horizon: failed
//! attempts (blue) cluster in three peaks, and deliveries (red) only
//! happen past the threshold, in the 80–90 ks band.

use crate::experiments::worlds::{self, VICTIM_DOMAIN, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Report, Scale};
use spamward_analysis::{plot, Cdf, Histogram, Series};
use spamward_botnet::{BotSample, Campaign, MalwareFamily};
use spamward_obs::Registry;
use spamward_sim::{DetRng, SimDuration, SimTime};
use std::fmt;
use std::net::Ipv4Addr;

/// Configuration for the Kelihos threshold experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct KelihosConfig {
    /// RNG seed.
    pub seed: u64,
    /// Victims in the spam campaign.
    pub recipients: usize,
    /// Observation horizon (Fig. 4 needs ≥ 90 000 s).
    pub horizon: SimDuration,
    /// Engine event budget shared by every per-threshold world
    /// (`None` = unbounded).
    pub event_budget: Option<u64>,
}

impl Default for KelihosConfig {
    fn default() -> Self {
        KelihosConfig {
            seed: 1337,
            recipients: 200,
            horizon: SimDuration::from_secs(100_000),
            event_budget: None,
        }
    }
}

/// One attempt from the Fig. 4 scatter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// Seconds since the campaign's first attempt for this victim.
    pub delay_secs: f64,
    /// Whether this attempt delivered (red) or failed (blue).
    pub delivered: bool,
}

/// Output of one threshold run.
#[derive(Debug, Clone)]
pub struct ThresholdRun {
    /// The greylisting threshold used.
    pub threshold: SimDuration,
    /// Delivery-delay CDF of the delivered messages.
    pub cdf: Cdf,
    /// Fraction of campaign messages eventually delivered.
    pub delivery_rate: f64,
    /// All attempts (for the Fig. 4 scatter).
    pub attempts: Vec<ScatterPoint>,
}

/// The combined Fig. 3 + Fig. 4 result.
#[derive(Debug, Clone)]
pub struct KelihosResult {
    /// The 5 s run (Fig. 3a).
    pub fast: ThresholdRun,
    /// The 300 s run (Fig. 3b).
    pub default: ThresholdRun,
    /// The 21 600 s run (Fig. 4).
    pub extreme: ThresholdRun,
    /// KS distance between the 5 s and 300 s CDFs (the "similarity between
    /// the two curves" claim).
    pub fig3_ks_distance: f64,
    /// Whether the one-spam-task control held: every message seen at the
    /// unprotected postmaster address equals the campaign message.
    pub single_task_confirmed: bool,
}

fn run_threshold(
    config: &KelihosConfig,
    threshold: SimDuration,
    trace: bool,
    reg: &mut Registry,
    trace_lines: &mut Vec<String>,
) -> ThresholdRun {
    let mut world = worlds::greylist_world(config.seed, threshold);
    world.event_budget = config.event_budget;
    if trace {
        world = world.with_tracing();
    }
    let mut bot = BotSample::new(MalwareFamily::Kelihos, 0, Ipv4Addr::new(203, 0, 113, 99));
    let mut rng = DetRng::seed(config.seed).fork("kelihos-campaign");
    let campaign = Campaign::synthetic(VICTIM_DOMAIN, config.recipients, &mut rng);
    let report =
        bot.run_campaign(&mut world, &campaign, SimTime::ZERO, SimTime::ZERO + config.horizon);
    spamward_mta::metrics::collect_world(&world, reg);
    spamward_botnet::metrics::collect_run(MalwareFamily::Kelihos, &report, reg);
    trace_lines.extend(world.events.lines());

    let delays: Vec<SimDuration> =
        report.attempts.iter().filter(|a| a.delivered).map(|a| a.since_first).collect();
    let attempts = report
        .attempts
        .iter()
        .map(|a| ScatterPoint { delay_secs: a.since_first.as_secs_f64(), delivered: a.delivered })
        .collect();
    ThresholdRun {
        threshold,
        cdf: Cdf::from_durations(delays),
        delivery_rate: report.delivery_rate(),
        attempts,
    }
}

/// Runs all three thresholds plus the one-spam-task control.
pub fn run(config: &KelihosConfig) -> KelihosResult {
    run_with_obs(config, false, &mut Registry::new(), &mut Vec::new())
}

/// Runs all three thresholds, aggregating per-world protocol metrics into
/// `reg` and (when `trace` is set) draining delivery traces into
/// `trace_lines`.
pub fn run_with_obs(
    config: &KelihosConfig,
    trace: bool,
    reg: &mut Registry,
    trace_lines: &mut Vec<String>,
) -> KelihosResult {
    let fast = run_threshold(config, SimDuration::from_secs(5), trace, reg, trace_lines);
    let default = run_threshold(config, SimDuration::from_secs(300), trace, reg, trace_lines);
    let extreme = run_threshold(config, SimDuration::from_secs(21_600), trace, reg, trace_lines);
    let fig3_ks_distance = fast.cdf.ks_distance(&default.cdf);

    // One-spam-task control: re-run the extreme threshold with an
    // unprotected postmaster recipient added; all postmaster copies must
    // be the same message as the campaign's.
    let single_task_confirmed = {
        let mut world = worlds::greylist_world(config.seed, SimDuration::from_secs(21_600));
        world.event_budget = config.event_budget;
        let mut bot = BotSample::new(MalwareFamily::Kelihos, 0, Ipv4Addr::new(203, 0, 113, 99));
        let mut rng = DetRng::seed(config.seed).fork("kelihos-campaign");
        let mut campaign = Campaign::synthetic(VICTIM_DOMAIN, 10, &mut rng);
        campaign
            .recipients
            .push(format!("postmaster@{VICTIM_DOMAIN}").parse().expect("valid control address"));
        let digest = campaign.message.digest();
        bot.run_campaign(&mut world, &campaign, SimTime::ZERO, SimTime::ZERO + config.horizon);
        let mailbox = world.server(VICTIM_MX_IP).expect("victim server").mailbox();
        let postmaster_copies: Vec<_> = mailbox
            .iter()
            .filter(|m| m.envelope.recipients().iter().any(|r| r.local_part() == "postmaster"))
            .collect();
        !postmaster_copies.is_empty()
            && postmaster_copies.iter().all(|m| m.message.digest() == digest)
    };

    KelihosResult { fast, default, extreme, fig3_ks_distance, single_task_confirmed }
}

impl KelihosResult {
    /// The Fig. 3 CDF curves as plot series (x = seconds, y = F(x)).
    pub fn fig3_series(&self) -> Vec<Series> {
        vec![
            Series::new("greylist-5s", self.fast.cdf.to_points(100)),
            Series::new("greylist-300s", self.default.cdf.to_points(100)),
        ]
    }

    /// The Fig. 4 scatter as two series (failed / delivered attempts;
    /// x = delay seconds, y = 0/1 marker).
    pub fn fig4_series(&self) -> Vec<Series> {
        let pick = |delivered: bool| {
            self.extreme
                .attempts
                .iter()
                .filter(|p| p.delivered == delivered && p.delay_secs > 0.0)
                .map(|p| (p.delay_secs, if delivered { 1.0 } else { 0.0 }))
                .collect::<Vec<_>>()
        };
        vec![Series::new("failed", pick(false)), Series::new("delivered", pick(true))]
    }

    /// The retry peaks of the Fig. 4 run, as `(lo, hi)` second bounds of
    /// each detected histogram peak.
    pub fn fig4_peaks(&self) -> Vec<(f64, f64)> {
        let mut hist = Histogram::logarithmic(100.0, 100_000.0, 30);
        hist.extend(
            self.extreme.attempts.iter().filter(|p| p.delay_secs > 0.0).map(|p| p.delay_secs),
        );
        hist.peaks(self.extreme.attempts.len() as u64 / 100)
            .into_iter()
            .map(|i| hist.bin_edges(i))
            .collect()
    }
}

impl fmt::Display for KelihosResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Figure 3: Kelihos delivery-delay CDFs ==")?;
        for run in [&self.fast, &self.default] {
            writeln!(
                f,
                "threshold {:>6}: delivered {:.0}%, median delay {:.0} s, min {:.0} s",
                run.threshold.to_string(),
                run.delivery_rate * 100.0,
                run.cdf.quantile(0.5),
                run.cdf.min(),
            )?;
        }
        writeln!(
            f,
            "KS distance between curves: {:.3} (curves nearly coincide)",
            self.fig3_ks_distance
        )?;
        writeln!(f)?;
        writeln!(f, "== Figure 4: retransmissions at a 21600 s threshold ==")?;
        writeln!(
            f,
            "attempts {} (failed {}, delivered {}), delivery rate {:.0}%",
            self.extreme.attempts.len(),
            self.extreme.attempts.iter().filter(|p| !p.delivered).count(),
            self.extreme.attempts.iter().filter(|p| p.delivered).count(),
            self.extreme.delivery_rate * 100.0
        )?;
        for (lo, hi) in self.fig4_peaks() {
            writeln!(f, "  retry peak in [{lo:.0} s, {hi:.0} s]")?;
        }
        writeln!(f, "one-spam-task control held: {}", self.single_task_confirmed)
    }
}

/// The module config a harness config maps to (one Kelihos run feeds both
/// the Fig. 3 and Fig. 4 registry entries).
fn kelihos_config(harness: &HarnessConfig) -> KelihosConfig {
    KelihosConfig {
        seed: harness.seed_or(KelihosConfig::default().seed),
        recipients: match harness.scale {
            Scale::Paper => KelihosConfig::default().recipients,
            Scale::Quick => 40,
        },
        event_budget: harness.event_budget,
        ..Default::default()
    }
}

/// Registry entry for the Fig. 3 delivery-delay CDFs.
pub struct Fig3Experiment;

impl Experiment for Fig3Experiment {
    fn id(&self) -> &'static str {
        "fig3"
    }

    fn title(&self) -> &'static str {
        "Kelihos delivery-delay CDFs (5 s vs 300 s threshold)"
    }

    fn paper_artifact(&self) -> &'static str {
        "Fig. 3"
    }

    fn run(&self, config: &HarnessConfig) -> Result<Report, HarnessError> {
        let module_config = kelihos_config(config);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        let (metrics, trace_lines) = report.obs_mut();
        let result = run_with_obs(&module_config, config.trace, metrics, trace_lines);
        crate::harness::ensure_completed(self.id(), report.metrics())?;
        let mut lines = String::new();
        for r in [&result.fast, &result.default] {
            lines.push_str(&format!(
                "threshold {:>6}: delivered {:.0}%, median delay {:.0} s, min {:.0} s\n",
                r.threshold.to_string(),
                r.delivery_rate * 100.0,
                r.cdf.quantile(0.5),
                r.cdf.min(),
            ));
        }
        report
            .push_text(&lines)
            .push_text(&format!(
                "CDF of the 300 s run (x = seconds since first attempt):\n{}",
                plot::ascii_cdf(&result.default.cdf, 60, 10)
            ))
            .push_scalar("5 s delivery rate (%)", result.fast.delivery_rate * 100.0)
            .push_scalar("300 s delivery rate (%)", result.default.delivery_rate * 100.0)
            .push_scalar("5 s median delay (s)", result.fast.cdf.quantile(0.5))
            .push_scalar("300 s median delay (s)", result.default.cdf.quantile(0.5))
            .push_scalar("KS distance", result.fig3_ks_distance);
        for series in result.fig3_series() {
            report.push_series(series);
        }
        Ok(report)
    }
}

/// Registry entry for the Fig. 4 long-run retransmission scatter.
pub struct Fig4Experiment;

impl Experiment for Fig4Experiment {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn title(&self) -> &'static str {
        "Kelihos retransmissions at a 21600 s threshold"
    }

    fn paper_artifact(&self) -> &'static str {
        "Fig. 4"
    }

    fn run(&self, config: &HarnessConfig) -> Result<Report, HarnessError> {
        let module_config = kelihos_config(config);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        let (metrics, trace_lines) = report.obs_mut();
        let result = run_with_obs(&module_config, config.trace, metrics, trace_lines);
        crate::harness::ensure_completed(self.id(), report.metrics())?;
        let failed = result.extreme.attempts.iter().filter(|p| !p.delivered).count();
        let delivered = result.extreme.attempts.iter().filter(|p| p.delivered).count();
        let mut peaks = String::new();
        for (lo, hi) in result.fig4_peaks() {
            peaks.push_str(&format!("  retry peak in [{lo:.0} s, {hi:.0} s]\n"));
        }
        let mut hist = Histogram::logarithmic(100.0, 100_000.0, 18);
        hist.extend(
            result.extreme.attempts.iter().filter(|p| p.delay_secs > 0.0).map(|p| p.delay_secs),
        );
        report
            .push_text(&peaks)
            .push_text(&format!(
                "retransmission-delay histogram (seconds, log bins):\n{}",
                plot::ascii_histogram(&hist, 40)
            ))
            .push_scalar("attempts", result.extreme.attempts.len() as f64)
            .push_scalar("failed attempts", failed as f64)
            .push_scalar("delivered attempts", delivered as f64)
            .push_scalar("delivery rate (%)", result.extreme.delivery_rate * 100.0)
            .push_scalar("retry peaks", result.fig4_peaks().len() as f64)
            .push_scalar(
                "one-spam-task control held",
                f64::from(u8::from(result.single_task_confirmed)),
            );
        for series in result.fig4_series() {
            report.push_series(series);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> KelihosResult {
        run(&KelihosConfig { recipients: 60, ..Default::default() })
    }

    #[test]
    fn fig3_curves_nearly_coincide() {
        let r = quick();
        // Both thresholds deliver everything...
        assert_eq!(r.fast.delivery_rate, 1.0);
        assert_eq!(r.default.delivery_rate, 1.0);
        // ...on the first retry, ≥300 s, regardless of the threshold.
        assert!(r.fast.cdf.min() >= 300.0, "min {}", r.fast.cdf.min());
        assert!(r.fast.cdf.max() < 600.0);
        assert!(r.fig3_ks_distance < 0.25, "KS {}", r.fig3_ks_distance);
    }

    #[test]
    fn fig4_delivers_only_past_threshold() {
        let r = quick();
        assert_eq!(r.extreme.delivery_rate, 1.0, "Kelihos eventually clears 6 h");
        for p in r.extreme.attempts.iter().filter(|p| p.delivered) {
            assert!(p.delay_secs >= 80_000.0 && p.delay_secs < 90_000.0);
        }
        for p in r.extreme.attempts.iter().filter(|p| !p.delivered && p.delay_secs > 0.0) {
            assert!(p.delay_secs < 21_600.0, "failed attempt past threshold at {}", p.delay_secs);
        }
    }

    #[test]
    fn fig4_finds_three_peaks() {
        let r = quick();
        let peaks = r.fig4_peaks();
        assert!(peaks.len() >= 3, "expected ≥3 peaks, got {peaks:?}");
        let covers = |lo: f64, hi: f64| peaks.iter().any(|&(a, b)| b > lo && a < hi);
        assert!(covers(300.0, 600.0), "missing 300–600 s peak: {peaks:?}");
        assert!(covers(4_500.0, 5_500.0), "missing ~5 ks peak: {peaks:?}");
        assert!(covers(80_000.0, 90_000.0), "missing 80–90 ks peak: {peaks:?}");
    }

    #[test]
    fn one_task_control_holds() {
        assert!(quick().single_task_confirmed);
    }

    #[test]
    fn series_exports() {
        let r = quick();
        let fig3 = r.fig3_series();
        assert_eq!(fig3.len(), 2);
        assert!(!fig3[0].is_empty());
        let fig4 = r.fig4_series();
        assert_eq!(fig4.len(), 2);
        assert!(!fig4[1].is_empty(), "delivered series must have points");
        let csv = Series::to_csv(&fig3);
        assert!(csv.contains("greylist-300s"));
    }

    #[test]
    fn renders() {
        let out = quick().to_string();
        assert!(out.contains("Figure 3"));
        assert!(out.contains("Figure 4"));
        assert!(out.contains("retry peak"));
    }
}

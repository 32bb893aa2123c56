//! Table II — effect of nolisting and greylisting on the malware families.
//!
//! Each of the eleven Table I samples runs for a 30-minute observation
//! window (the paper's per-sample budget) against (a) a nolisting victim
//! and (b) a greylisting victim at the 300 s Postgrey default. A ✓ means
//! the defense prevented *every* spam message of that sample.
//!
//! Samples are independent (each gets its own campaign RNG fork and fresh
//! per-defense worlds), so the matrix runs sharded: the roster partitions
//! into [`EFFICACY_SHARDS`] fixed shards by stable hash of the sample
//! name, rows and traces reassemble in roster order, and the per-shard
//! metric registries merge — the report bytes equal the serial run's for
//! every executor width.

use crate::experiments::worlds::{self, VICTIM_DOMAIN};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Report, Scale};
use crate::metrics::SAMPLE_SHARD_PREFIX;
use spamward_analysis::Table;
use spamward_botnet::{BotSample, Campaign, MalwareFamily};
use spamward_obs::{Registry, TimeSeries, Timeline};
use spamward_sim::shard::run_sharded;
use spamward_sim::{DetRng, ShardPlan, SimDuration, SimTime};
use std::fmt;
use std::net::Ipv4Addr;

/// Fixed shard count of the roster partition. Samples are assigned to
/// shards by stable hash of their name, never by worker id, so
/// [`EfficacyConfig::workers`] only picks how many shards run at once.
pub const EFFICACY_SHARDS: u32 = 8;

/// Configuration of the Table II experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficacyConfig {
    /// RNG seed.
    pub seed: u64,
    /// Victims per sample campaign.
    pub recipients: usize,
    /// Observation window per sample (paper: 30 minutes).
    pub window: SimDuration,
    /// Greylisting threshold (paper default: 300 s).
    pub greylist_delay: SimDuration,
    /// Engine event budget per run, shared by every per-sample world
    /// (`None` = unbounded).
    pub event_budget: Option<u64>,
    /// Shard-executor width: how many of the [`EFFICACY_SHARDS`] run
    /// concurrently. Output bytes are identical for every value.
    pub workers: usize,
    /// Sample telemetry counters into a time-series at this virtual-time
    /// interval (`None` = no sampler joins the per-sample episodes).
    pub sample_interval: Option<SimDuration>,
}

impl Default for EfficacyConfig {
    fn default() -> Self {
        EfficacyConfig {
            seed: 42,
            recipients: 20,
            window: SimDuration::from_mins(30),
            greylist_delay: SimDuration::from_secs(300),
            event_budget: None,
            workers: 4,
            sample_interval: None,
        }
    }
}

/// One Table II row: one sample against both defenses.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficacyRow {
    /// The sample's family.
    pub family: MalwareFamily,
    /// Sample index within the family (0-based).
    pub sample_idx: u32,
    /// Whether nolisting blocked every message (✓ in the paper).
    pub nolisting_blocked: bool,
    /// Whether greylisting blocked every message.
    pub greylisting_blocked: bool,
}

/// The full matrix plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficacyResult {
    /// One row per sample, Table I order.
    pub rows: Vec<EfficacyRow>,
}

impl EfficacyResult {
    /// The (consistent-across-samples) verdicts for one family.
    pub fn family_row(&self, family_name: &str) -> Option<&EfficacyRow> {
        self.rows.iter().find(|r| r.family.name() == family_name)
    }

    /// Whether every sample of a family agrees with the first (the paper
    /// found no intra-family variation).
    pub fn family_consistent(&self, family: MalwareFamily) -> bool {
        let mut rows = self.rows.iter().filter(|r| r.family == family);
        let Some(first) = rows.next() else { return true };
        rows.all(|r| {
            r.nolisting_blocked == first.nolisting_blocked
                && r.greylisting_blocked == first.greylisting_blocked
        })
    }

    /// Share of *botnet* spam blocked by a defense, weighting each family
    /// by its Table I share.
    pub fn botnet_spam_blocked_pct(&self, nolisting: bool) -> f64 {
        MalwareFamily::ALL
            .iter()
            .filter_map(|&family| {
                let row = self.rows.iter().find(|r| r.family == family)?;
                let blocked =
                    if nolisting { row.nolisting_blocked } else { row.greylisting_blocked };
                blocked.then_some(family.botnet_spam_pct())
            })
            .sum()
    }
}

/// Runs the Table II experiment.
pub fn run(config: &EfficacyConfig) -> EfficacyResult {
    run_with_obs(config, false, &mut Registry::new(), &mut Vec::new())
}

/// Runs the Table II experiment, aggregating protocol metrics from every
/// per-sample world into `reg` and (when `trace` is set) draining the
/// worlds' delivery traces into `trace_lines`.
pub fn run_with_obs(
    config: &EfficacyConfig,
    trace: bool,
    reg: &mut Registry,
    trace_lines: &mut Vec<String>,
) -> EfficacyResult {
    run_with_telemetry(
        config,
        trace,
        reg,
        trace_lines,
        &mut TimeSeries::new(),
        &mut Timeline::new(),
    )
}

/// [`run_with_obs`] plus virtual-time telemetry capture: sampled series
/// merge into `samples` and (when `trace` is set) every world's lifecycle
/// tracks, scoped `<defense>/<family>.s<n>`, into `timeline`, both in
/// fixed shard order so the accumulated bytes are identical for every
/// executor width. With both off the sinks stay untouched and the engine
/// event stream matches a run without them.
pub fn run_with_telemetry(
    config: &EfficacyConfig,
    trace: bool,
    reg: &mut Registry,
    trace_lines: &mut Vec<String>,
    samples: &mut TimeSeries,
    timeline: &mut Timeline,
) -> EfficacyResult {
    let roster = BotSample::table_i_roster(Ipv4Addr::new(203, 0, 113, 1));
    let horizon = SimTime::ZERO + config.window;
    let plan = ShardPlan::new(config.seed, EFFICACY_SHARDS);

    // Each shard runs the roster samples it owns, in roster order, into
    // its own registry; rows and traces come back tagged with the roster
    // index so the merged output keeps the serial order exactly.
    let shard_runs = run_sharded(&plan, config.workers, |shard| {
        let mut metrics = Registry::new();
        let mut shard_samples = TimeSeries::new();
        let mut shard_timeline = Timeline::new();
        let mut outputs: Vec<(usize, EfficacyRow, Vec<String>)> = Vec::new();
        for (idx, sample) in roster.iter().enumerate() {
            let key = format!("{}.sample{}", sample.family().name(), sample.sample_idx());
            if !plan.owns(shard, &key) {
                continue;
            }
            let (row, traces) = run_sample(
                config,
                sample,
                horizon,
                trace,
                &mut metrics,
                &mut shard_samples,
                &mut shard_timeline,
            );
            outputs.push((idx, row, traces));
        }
        (outputs, metrics, shard_samples, shard_timeline)
    });

    let mut tagged: Vec<&(usize, EfficacyRow, Vec<String>)> = Vec::new();
    for (shard, (outputs, metrics, shard_samples, shard_timeline)) in shard_runs.iter().enumerate()
    {
        let events = metrics.counter(spamward_mta::metrics::ENGINE_EVENTS).unwrap_or(0);
        spamward_mta::metrics::collect_shard_events(shard as u32, events, reg);
        reg.merge(metrics);
        samples.merge(shard_samples);
        timeline.merge(shard_timeline);
        if config.sample_interval.is_some() {
            samples.record_point(
                &format!("{SAMPLE_SHARD_PREFIX}{shard}.events"),
                horizon,
                i64::try_from(events).unwrap_or(i64::MAX),
            );
        }
        tagged.extend(outputs);
    }
    tagged.sort_by_key(|(idx, _, _)| *idx);

    let mut rows = Vec::new();
    for (_, row, traces) in tagged {
        rows.push(row.clone());
        trace_lines.extend_from_slice(traces);
    }
    EfficacyResult { rows }
}

/// Runs one roster sample against both defenses, folding the two worlds'
/// metrics into `metrics` (and their telemetry into `samples` /
/// `timeline`) and returning the Table II row plus any traces.
fn run_sample(
    config: &EfficacyConfig,
    sample: &BotSample,
    horizon: SimTime,
    trace: bool,
    metrics: &mut Registry,
    samples: &mut TimeSeries,
    timeline: &mut Timeline,
) -> (EfficacyRow, Vec<String>) {
    let mut campaign_rng = DetRng::seed(config.seed)
        .fork(sample.family().name())
        .fork_idx("c", u64::from(sample.sample_idx()));
    let campaign = Campaign::synthetic(VICTIM_DOMAIN, config.recipients, &mut campaign_rng);
    let mut traces = Vec::new();
    // (a) the nolisting victim, then (b) the greylisting one.
    let [nolisting_blocked, greylisting_blocked] = [
        ("nolisting", worlds::nolisting_world(config.seed)),
        ("greylist", worlds::greylist_world(config.seed, config.greylist_delay)),
    ]
    .map(|(defense, mut world)| {
        world.event_budget = config.event_budget;
        if let Some(interval) = config.sample_interval {
            world = world.with_sampling(interval);
        }
        if trace {
            world = world.with_tracing();
        }
        let mut bot = sample.clone();
        let report = bot.run_campaign(&mut world, &campaign, SimTime::ZERO, horizon);
        spamward_mta::metrics::collect_world(&world, metrics);
        spamward_botnet::metrics::collect_run(sample.family(), &report, metrics);
        samples.merge(&world.samples);
        if trace {
            traces.extend(world.events.lines());
            let scope = format!("{defense}/{}.s{}", sample.family().name(), sample.sample_idx());
            timeline.merge(&world.events.timeline(&scope));
        }
        !report.any_delivered()
    });

    let row = EfficacyRow {
        family: sample.family(),
        sample_idx: sample.sample_idx(),
        nolisting_blocked,
        greylisting_blocked,
    };
    (row, traces)
}

impl EfficacyResult {
    /// Table II as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mark = |blocked: bool| if blocked { "v".to_owned() } else { "x".to_owned() };
        let mut t = Table::new(vec!["Sample", "Greylisting", "Nolisting"])
            .with_title("Table II: v = defense blocked all spam, x = spam got through");
        let mut last_family = None;
        for r in &self.rows {
            if last_family != Some(r.family) {
                t.row(vec![format!("{}:", r.family), String::new(), String::new()]);
                last_family = Some(r.family);
            }
            t.row(vec![
                format!("  sample{}", r.sample_idx + 1),
                mark(r.greylisting_blocked),
                mark(r.nolisting_blocked),
            ]);
        }
        t
    }
}

impl fmt::Display for EfficacyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table())?;
        writeln!(
            f,
            "botnet spam blocked: greylisting {:.2}%, nolisting {:.2}%",
            self.botnet_spam_blocked_pct(false),
            self.botnet_spam_blocked_pct(true)
        )
    }
}

/// Registry entry for the Table II per-family matrix.
pub struct EfficacyExperiment;

impl EfficacyExperiment {
    /// The module config a harness config maps to (shared with
    /// [`summary`](crate::experiments::summary), which replays Table II).
    pub fn config(harness: &HarnessConfig) -> EfficacyConfig {
        EfficacyConfig {
            seed: harness.seed_or(EfficacyConfig::default().seed),
            recipients: match harness.scale {
                Scale::Paper => EfficacyConfig::default().recipients,
                Scale::Quick => 5,
            },
            event_budget: harness.event_budget,
            workers: if harness.shards > 0 {
                harness.shard_workers()
            } else {
                EfficacyConfig::default().workers
            },
            sample_interval: harness.sample_interval,
            ..Default::default()
        }
    }
}

impl Experiment for EfficacyExperiment {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Per-family efficacy matrix"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table II"
    }

    fn run(&self, config: &HarnessConfig) -> Result<Report, HarnessError> {
        let module_config = Self::config(config);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        let mut samples = TimeSeries::new();
        let mut timeline = Timeline::new();
        let (metrics, trace_lines) = report.obs_mut();
        let result = run_with_telemetry(
            &module_config,
            config.trace,
            metrics,
            trace_lines,
            &mut samples,
            &mut timeline,
        );
        crate::harness::ensure_completed(self.id(), report.metrics())?;
        *report.timeseries_mut() = samples;
        *report.timeline_mut() = timeline;
        report
            .push_table(result.table())
            .push_scalar(
                "greylisting blocked (% of botnet spam)",
                result.botnet_spam_blocked_pct(false),
            )
            .push_scalar(
                "nolisting blocked (% of botnet spam)",
                result.botnet_spam_blocked_pct(true),
            );
        // Per-family verdicts as 0/1 scalars: the summary experiment reads
        // these through the registry instead of re-running the campaigns.
        for family in MalwareFamily::ALL {
            if let Some(row) = result.family_row(family.name()) {
                report.push_scalar(
                    &format!("greylisting blocks {}", family.name()),
                    f64::from(u8::from(row.greylisting_blocked)),
                );
                report.push_scalar(
                    &format!("nolisting blocks {}", family.name()),
                    f64::from(u8::from(row.nolisting_blocked)),
                );
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> EfficacyResult {
        run(&EfficacyConfig { recipients: 5, ..Default::default() })
    }

    #[test]
    fn matrix_matches_table_ii() {
        let r = quick();
        assert_eq!(r.rows.len(), 11, "eleven samples as in Table I");
        for row in &r.rows {
            let expect_nolisting = row.family == MalwareFamily::Kelihos;
            let expect_greylisting = row.family != MalwareFamily::Kelihos;
            assert_eq!(
                row.nolisting_blocked, expect_nolisting,
                "{} sample{}: nolisting",
                row.family, row.sample_idx
            );
            assert_eq!(
                row.greylisting_blocked, expect_greylisting,
                "{} sample{}: greylisting",
                row.family, row.sample_idx
            );
        }
    }

    #[test]
    fn families_are_internally_consistent() {
        let r = quick();
        for family in MalwareFamily::ALL {
            assert!(r.family_consistent(family), "{family} samples disagree");
        }
    }

    #[test]
    fn blocked_shares_match_paper_claims() {
        let r = quick();
        // Greylisting stops Cutwail + both Darkmailers: 56.69% of botnet
        // spam; nolisting stops Kelihos: 36.33%.
        assert!((r.botnet_spam_blocked_pct(false) - 56.69).abs() < 1e-9);
        assert!((r.botnet_spam_blocked_pct(true) - 36.33).abs() < 1e-9);
    }

    #[test]
    fn renders_matrix() {
        let out = quick().to_string();
        assert!(out.contains("Cutwail:"));
        assert!(out.contains("Kelihos:"));
        assert!(out.contains("sample6"));
        assert!(out.contains("botnet spam blocked"));
    }

    #[test]
    fn family_row_lookup() {
        let r = quick();
        assert!(r.family_row("Kelihos").unwrap().nolisting_blocked);
        assert!(r.family_row("Cutwail").unwrap().greylisting_blocked);
        assert!(r.family_row("Nonexistent").is_none());
    }
}

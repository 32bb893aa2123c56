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
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use crate::metrics::SAMPLE_SHARD_PREFIX;
use spamward_analysis::Table;
use spamward_botnet::{BotSample, Campaign, MalwareFamily};
use spamward_mta::metrics::ENGINE_EVENTS;
use spamward_sim::shard::run_sharded;
use spamward_sim::{DetRng, ShardPlan, SimDuration, SimTime};
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
    /// Shard-executor width: how many of the [`EFFICACY_SHARDS`] run
    /// concurrently. Output bytes are identical for every value.
    pub workers: usize,
}

impl Default for EfficacyConfig {
    fn default() -> Self {
        EfficacyConfig {
            seed: 42,
            recipients: 20,
            window: SimDuration::from_mins(30),
            greylist_delay: SimDuration::from_secs(300),
            workers: 4,
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

/// Runs the Table II experiment into `obs`: every per-sample world's
/// metrics, its delivery traces (in roster order) and, when `obs` traces,
/// its lifecycle tracks scoped `<defense>/<family>.s<n>`. When `obs`
/// samples, each world samples too, and each shard of the fixed partition
/// adds its event total at the horizon. The bytes are identical for every
/// executor width.
pub fn run(config: &EfficacyConfig, obs: &mut Obs) -> EfficacyResult {
    let roster = BotSample::table_i_roster(Ipv4Addr::new(203, 0, 113, 1));
    let horizon = SimTime::ZERO + config.window;
    let plan = ShardPlan::new(config.seed, EFFICACY_SHARDS);

    // Each shard runs the roster samples it owns, in roster order, each
    // into its own context tagged with the roster index, so the merged
    // output keeps the serial order exactly.
    let shard_runs = run_sharded(&plan, config.workers, |shard| {
        let mut outputs: Vec<(usize, EfficacyRow, Obs)> = Vec::new();
        for (idx, sample) in roster.iter().enumerate() {
            let key = format!("{}.sample{}", sample.family().name(), sample.sample_idx());
            if !plan.owns(shard, &key) {
                continue;
            }
            let mut sample_obs = obs.fork();
            let row = run_sample(config, sample, horizon, &mut sample_obs);
            outputs.push((idx, row, sample_obs));
        }
        outputs
    });

    let mut tagged = Vec::new();
    for (shard, outputs) in shard_runs.into_iter().enumerate() {
        let events: u64 =
            outputs.iter().map(|(_, _, o)| o.registry.counter(ENGINE_EVENTS).unwrap_or(0)).sum();
        spamward_mta::metrics::collect_shard_events(shard as u32, events, &mut obs.registry);
        if obs.sample_interval().is_some() {
            obs.timeseries.record_point(
                &format!("{SAMPLE_SHARD_PREFIX}{shard}.events"),
                horizon,
                i64::try_from(events).unwrap_or(i64::MAX),
            );
        }
        tagged.extend(outputs);
    }
    tagged.sort_by_key(|(idx, _, _)| *idx);

    let mut rows = Vec::new();
    for (_, row, sample_obs) in tagged {
        rows.push(row);
        obs.absorb(sample_obs);
    }
    EfficacyResult { rows }
}

/// Runs one roster sample against both defenses, folding the two worlds
/// into `obs` and returning the Table II row.
fn run_sample(
    config: &EfficacyConfig,
    sample: &BotSample,
    horizon: SimTime,
    obs: &mut Obs,
) -> EfficacyRow {
    let mut campaign_rng = DetRng::seed(config.seed)
        .fork(sample.family().name())
        .fork_idx("c", u64::from(sample.sample_idx()));
    let campaign = Campaign::synthetic(VICTIM_DOMAIN, config.recipients, &mut campaign_rng);
    // (a) the nolisting victim, then (b) the greylisting one.
    let [nolisting_blocked, greylisting_blocked] = [
        ("nolisting", worlds::nolisting_world(config.seed)),
        ("greylist", worlds::greylist_world(config.seed, config.greylist_delay)),
    ]
    .map(|(defense, world)| {
        let mut world = obs.arm(world);
        if let Some(interval) = obs.sample_interval() {
            world = world.with_sampling(interval);
        }
        let mut bot = sample.clone();
        let report = bot.run_campaign(&mut world, &campaign, SimTime::ZERO, horizon);
        obs.collect(&world);
        spamward_botnet::metrics::collect_run(sample.family(), &report, &mut obs.registry);
        if obs.trace() {
            let scope = format!("{defense}/{}.s{}", sample.family().name(), sample.sample_idx());
            obs.timeline.merge(&world.events.timeline(&scope));
        }
        !report.any_delivered()
    });

    EfficacyRow {
        family: sample.family(),
        sample_idx: sample.sample_idx(),
        nolisting_blocked,
        greylisting_blocked,
    }
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
            workers: if harness.shards > 0 {
                harness.shard_workers()
            } else {
                EfficacyConfig::default().workers
            },
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

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = Self::config(config);
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
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
        run(&EfficacyConfig { recipients: 5, ..Default::default() }, &mut Obs::default())
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
    fn blocked_shares_match_paper_claims() {
        let r = quick();
        // Greylisting stops Cutwail + both Darkmailers: 56.69% of botnet
        // spam; nolisting stops Kelihos: 36.33%.
        assert!((r.botnet_spam_blocked_pct(false) - 56.69).abs() < 1e-9);
        assert!((r.botnet_spam_blocked_pct(true) - 36.33).abs() < 1e-9);
    }

    #[test]
    fn family_row_lookup() {
        let r = quick();
        assert!(r.family_row("Kelihos").unwrap().nolisting_blocked);
        assert!(r.family_row("Cutwail").unwrap().greylisting_blocked);
        assert!(r.family_row("Nonexistent").is_none());
    }
}

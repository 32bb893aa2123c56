//! Fig. 2 — worldwide adoption of nolisting.
//!
//! The paper combined the zmap DNS-ANY dump with the IPv4 SMTP banner grab,
//! re-resolved the MX entries whose glue was missing, classified 42.6 M
//! mail setups, repeated the scan two months later, and cross-checked. The
//! reproduction runs the same pipeline over a synthetic population with
//! ground truth (see `spamward-scanner`), which additionally yields the
//! detector's precision/recall.
//!
//! The survey streams its population ([`PopulationStream`]) in
//! [`ADOPTION_BLOCKS`] contiguous blocks of stream indices, scanned on the
//! shard executor and folded in block order ([`BlockScan::merge`]). Each
//! domain is named and hashed once and adds its outcome to the one of
//! [`ADOPTION_SHARDS`] fixed shards its name hashes to, so every per-shard
//! number is a sum that depends on neither the block split nor the
//! executor width: `repro fig2 --shards N` is byte-identical for every
//! `N` — and memory stays O(1) in the population size, which is what lets
//! a 10 M-domain scan run on a laptop.

use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use crate::metrics::SAMPLE_SHARD_PREFIX;
use spamward_analysis::Table;
use spamward_obs::Registry;
use spamward_scanner::{
    scan_block, BlockScan, DetectorAccuracy, DomainClass, Fig2Stats, PopulationSpec,
    PopulationStream,
};
use spamward_sim::shard::run_partitioned;
use spamward_sim::{ShardPlan, SimTime};

/// Fixed shard count of the survey's partition. Domains are assigned to
/// shards by stable hash of their name, never by block or worker, and each
/// shard reports its own event total (`sim.engine.shard.<i>.events`).
pub const ADOPTION_SHARDS: u32 = 8;

/// Fixed count of the contiguous blocks the survey's stream is cut into;
/// [`AdoptionConfig::workers`] only picks how many run at once.
pub const ADOPTION_BLOCKS: u64 = 8;

/// Configuration of the adoption survey.
#[derive(Debug, Clone, PartialEq)]
pub struct AdoptionConfig {
    /// Synthetic population size (the paper saw 135 M domains; default is
    /// laptop-scale with the same mix).
    pub domains: usize,
    /// RNG seed.
    pub seed: u64,
    /// Scan epochs (paper: two scans, 2015-02-28 and 2015-04-25).
    pub epochs: Vec<u64>,
    /// Shard-executor width: how many of the [`ADOPTION_BLOCKS`] run
    /// concurrently. Output bytes are identical for every value.
    pub workers: usize,
    /// Population knobs (class mix, host flakiness).
    pub spec: PopulationSpec,
}

impl Default for AdoptionConfig {
    fn default() -> Self {
        let domains = 30_000;
        AdoptionConfig {
            domains,
            seed: 2015,
            epochs: vec![0, 1],
            workers: 4,
            spec: PopulationSpec::fig2(domains),
        }
    }
}

/// The survey output.
#[derive(Debug, Clone)]
pub struct AdoptionResult {
    /// Fig. 2's class percentages.
    pub stats: Fig2Stats,
    /// Detector accuracy vs ground truth.
    pub accuracy: DetectorAccuracy,
    /// Detected-nolisting counts within the top-k popular domains, for the
    /// paper's Alexa cross-check (k = 15, 500, 1000).
    pub top_k: Vec<(u32, usize)>,
    /// MX entries whose glue the scan resolved after the DNS dump (the
    /// paper's "missing entries"), summed over the scan rounds.
    pub glue_resolved: usize,
    /// Change in detected-nolisting count from the first scan to the
    /// second, as a fraction of the first (paper: 0.01%). Later epochs
    /// take no part.
    pub between_scan_change: f64,
}

/// Runs the Fig. 2 survey, exporting scan-pipeline, classification and
/// per-shard metrics into `obs`. When `obs` samples, the streaming
/// scanner's per-bucket series merge into its time-series
/// (order-insensitive, so the bytes match for every executor width), and
/// each shard of the fixed partition adds its event total at the scan's
/// virtual end. The survey drives no mail world, so it has no trace lines.
///
/// # Panics
///
/// Panics if fewer than two scan epochs are configured (the cross-check
/// needs at least two).
pub fn run(config: &AdoptionConfig, obs: &mut Obs) -> AdoptionResult {
    assert!(config.epochs.len() >= 2, "the cross-check needs at least two scans");
    let mut spec = config.spec.clone();
    spec.domains = config.domains;
    let stream = PopulationStream::new(spec, config.seed);
    let plan = ShardPlan::new(config.seed, ADOPTION_SHARDS);
    let ks = [15u32, 500, 1000];
    let blocks = run_partitioned(stream.blocks(ADOPTION_BLOCKS), config.workers, |block| {
        scan_block(&stream, &plan, block, &config.epochs, &ks)
    });
    let mut scan = BlockScan::empty(ADOPTION_SHARDS, config.epochs.len(), &ks);
    for block in &blocks {
        scan.merge(block);
    }

    // Every shard of the fixed partition records its event count, so the
    // metric set never depends on `workers`. The scan streams one domain
    // per virtual second, so its virtual end is the population size in
    // seconds.
    let scan_end = SimTime::from_secs(config.domains as u64);
    let sampling = obs.sample_interval().is_some();
    for (shard, stats) in scan.shards.iter().enumerate() {
        spamward_mta::metrics::collect_shard_events(shard as u32, stats.events, &mut obs.registry);
        if sampling {
            obs.timeseries.record_point(
                &format!("{SAMPLE_SHARD_PREFIX}{shard}.events"),
                scan_end,
                i64::try_from(stats.events).unwrap_or(i64::MAX),
            );
        }
    }
    if sampling {
        obs.timeseries.merge(&scan.samples);
    }
    let total = scan.total();
    spamward_scanner::metrics::collect_shard_scan(&total, &mut obs.registry);

    let (first, second) = (total.rounds[0].nolisting, total.rounds[1].nolisting);
    let between_scan_change =
        if first == 0 { 0.0 } else { (second as f64 - first as f64).abs() / first as f64 };

    AdoptionResult {
        stats: total.fig2(),
        accuracy: total.rounds[total.rounds.len() - 1].accuracy,
        top_k: total.top_k.iter().map(|&(k, n)| (k, n as usize)).collect(),
        glue_resolved: total.glue_resolved as usize,
        between_scan_change,
    }
}

/// [`run`] for callers holding their own registry: it moves into the
/// run's context and back, so nothing is merged.
pub fn run_with_obs(config: &AdoptionConfig, reg: &mut Registry) -> AdoptionResult {
    let mut obs = Obs::default();
    obs.registry = std::mem::take(reg);
    let result = run(config, &mut obs);
    *reg = obs.registry;
    result
}

impl AdoptionResult {
    /// The Fig. 2 class breakdown as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["Class", "Domains", "Share"])
            .with_title("Figure 2: nolisting mail server statistics");
        for (class, count) in &self.stats.counts {
            t.row(vec![
                class.to_string(),
                count.to_string(),
                format!("{:.2}%", self.stats.pct(*class)),
            ]);
        }
        t
    }
}

/// Registry entry for the Fig. 2 adoption survey.
pub struct AdoptionExperiment;

impl AdoptionExperiment {
    /// The module config a harness config maps to.
    fn config(harness: &HarnessConfig) -> AdoptionConfig {
        let domains = match harness.scale {
            Scale::Paper => AdoptionConfig::default().domains,
            Scale::Quick => 4_000,
        };
        AdoptionConfig {
            domains,
            seed: harness.seed_or(AdoptionConfig::default().seed),
            workers: if harness.shards > 0 {
                harness.shard_workers()
            } else {
                AdoptionConfig::default().workers
            },
            ..Default::default()
        }
    }
}

impl Experiment for AdoptionExperiment {
    fn id(&self) -> &'static str {
        "fig2"
    }

    fn title(&self) -> &'static str {
        "Worldwide nolisting adoption survey"
    }

    fn paper_artifact(&self) -> &'static str {
        "Fig. 2"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = Self::config(config);
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        report
            .push_table(result.table())
            .push_scalar("nolisting share (%)", result.stats.pct(DomainClass::Nolisting))
            .push_scalar("one-MX share (%)", result.stats.pct(DomainClass::OneMx))
            .push_scalar("multi-MX share (%)", result.stats.pct(DomainClass::MultiMxNoNolisting))
            .push_scalar(
                "DNS misconfigured share (%)",
                result.stats.pct(DomainClass::DnsMisconfigured),
            )
            .push_scalar("detector precision", result.accuracy.precision())
            .push_scalar("detector recall", result.accuracy.recall())
            .push_scalar("glue re-resolved", result.glue_resolved as f64)
            .push_scalar("between-scan drift (%)", result.between_scan_change * 100.0);
        for (k, n) in &result.top_k {
            report.push_scalar(&format!("nolisting among top-{k}"), *n as f64);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> AdoptionConfig {
        AdoptionConfig { domains: 5_000, ..Default::default() }
    }

    #[test]
    fn reproduces_fig2_shares() {
        let r = run(&small_config(), &mut Obs::default());
        assert!((r.stats.pct(DomainClass::OneMx) - 47.73).abs() < 3.0);
        assert!((r.stats.pct(DomainClass::MultiMxNoNolisting) - 45.97).abs() < 3.0);
        assert!((r.stats.pct(DomainClass::DnsMisconfigured) - 5.78).abs() < 2.0);
        let nolisting = r.stats.pct(DomainClass::Nolisting);
        assert!(nolisting > 0.05 && nolisting < 2.0, "nolisting share {nolisting}");
    }

    #[test]
    fn glue_pass_does_work_and_detector_is_accurate() {
        let r = run(&small_config(), &mut Obs::default());
        assert!(r.glue_resolved > 0, "the glue pass must have work");
        assert!(r.accuracy.precision() > 0.5);
        assert!(r.accuracy.recall() > 0.8);
    }

    #[test]
    fn between_scan_drift_is_small() {
        // The paper reports 0.01% change between the two scans; with mild
        // flakiness ours stays within a few percent.
        let r = run(&small_config(), &mut Obs::default());
        assert!(r.between_scan_change < 0.25, "drift {}", r.between_scan_change);
    }

    #[test]
    fn top_k_counts_are_monotone() {
        let r = run(&small_config(), &mut Obs::default());
        assert_eq!(r.top_k.len(), 3);
        assert!(r.top_k[0].1 <= r.top_k[1].1);
        assert!(r.top_k[1].1 <= r.top_k[2].1);
    }

    #[test]
    #[should_panic(expected = "at least two scans")]
    fn one_epoch_rejected() {
        let mut c = small_config();
        c.epochs = vec![0];
        let _ = run(&c, &mut Obs::default());
    }
}

//! Long-term stability — the Sochor question (§VII related work).
//!
//! Sochor's 2007–2008 study found greylisting's effectiveness "remained
//! constant over the two years of experiments" but warned about the
//! automatic administration of the auto-whitelist. This experiment runs a
//! mixed spam + benign workload month by month over a four-month horizon
//! (the paper's deployment window) with the auto-whitelist *enabled*, and
//! tracks per-month block rates, triplet-store growth, and how much
//! traffic ends up bypassing greylisting through the AWL.

use crate::experiments::worlds::{self, VICTIM_DOMAIN, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Report, Scale};
use spamward_analysis::Table;
use spamward_botnet::{BotSample, Campaign, MalwareFamily};
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::{MtaProfile, SendingMta};
use spamward_obs::Registry;
use spamward_sim::{DetRng, SimDuration, SimTime};
use spamward_smtp::{Message, ReversePath};
use std::fmt;
use std::net::Ipv4Addr;

/// Configuration of the long-term run.
#[derive(Debug, Clone, PartialEq)]
pub struct LongTermConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of 30-day months to simulate.
    pub months: usize,
    /// Spam campaigns per month (fire-and-forget, fresh bots).
    pub spam_campaigns_per_month: usize,
    /// Benign messages per month. A fixed pool of relays sends them, so
    /// the auto-whitelist has something to learn.
    pub benign_per_month: usize,
    /// Distinct benign relays in the pool.
    pub benign_relays: usize,
    /// Engine event budget for the victim world (`None` = unbounded).
    pub event_budget: Option<u64>,
}

impl Default for LongTermConfig {
    /// Defaults keep `benign_relays` ≤ 100 so each relay gets its own /24.
    fn default() -> Self {
        LongTermConfig {
            seed: 4_000,
            months: 4,
            spam_campaigns_per_month: 30,
            benign_per_month: 120,
            benign_relays: 12,
            event_budget: None,
        }
    }
}

/// One month's aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthRow {
    /// 1-based month index.
    pub month: usize,
    /// Fraction of spam messages blocked this month.
    pub spam_block_rate: f64,
    /// Fraction of benign messages delivered this month.
    pub benign_delivery_rate: f64,
    /// Fraction of benign messages that passed via the auto-whitelist
    /// (no greylist delay at all).
    pub benign_awl_rate: f64,
    /// Triplet-store size at month end (after maintenance sweep).
    pub store_size: usize,
}

/// The four-month trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct LongTermResult {
    /// One row per month.
    pub months: Vec<MonthRow>,
}

impl LongTermResult {
    /// Largest month-to-month swing in the spam block rate — Sochor's
    /// "remained constant" claim, quantified.
    pub fn max_block_rate_swing(&self) -> f64 {
        self.months
            .windows(2)
            .map(|w| (w[1].spam_block_rate - w[0].spam_block_rate).abs())
            .fold(0.0, f64::max)
    }
}

/// Runs the long-term workload.
pub fn run(config: &LongTermConfig) -> LongTermResult {
    run_with_obs(config, false, &mut Registry::new(), &mut Vec::new())
}

/// Runs the long-term workload, exporting the victim world's end-of-run
/// protocol metrics into `reg` and (when `trace` is set) draining delivery
/// traces into `trace_lines`.
pub fn run_with_obs(
    config: &LongTermConfig,
    trace: bool,
    reg: &mut Registry,
    trace_lines: &mut Vec<String>,
) -> LongTermResult {
    // AWL on (Postgrey default of 5) — the knob under study.
    let mut world =
        worlds::custom_greylist_world(config.seed, Greylist::new(GreylistConfig::default()));
    world.event_budget = config.event_budget;
    if trace {
        world = world.with_tracing();
    }

    let mut rng = DetRng::seed(config.seed).fork("longterm");
    let month = SimDuration::from_days(30);
    // One /24 per relay: the auto-whitelist keys on the client network, so
    // sharing a subnet would let one relay's reputation cover them all.
    let relay_ips: Vec<Ipv4Addr> =
        (0..config.benign_relays).map(|i| Ipv4Addr::new(198, 51, 100 + i as u8, 1)).collect();

    let mut months = Vec::new();
    let mut bot_ip_pool = spamward_net::IpPool::new(Ipv4Addr::new(203, 0, 0, 1));
    for m in 0..config.months {
        let month_start = SimTime::ZERO + month * m as u64;

        // --- Spam: fresh fire-and-forget bots, new triplets every time.
        let mut spam_sent = 0usize;
        let mut spam_delivered = 0usize;
        for c in 0..config.spam_campaigns_per_month {
            let family =
                if c % 2 == 0 { MalwareFamily::Cutwail } else { MalwareFamily::Darkmailer };
            let mut bot = BotSample::new(family, c as u32, bot_ip_pool.next_ip());
            let campaign = Campaign::synthetic(VICTIM_DOMAIN, 3, &mut rng);
            let at = month_start + SimDuration::from_micros(rng.below(month.as_micros()));
            let report =
                bot.run_campaign(&mut world, &campaign, at, at + SimDuration::from_mins(30));
            spam_sent += campaign.len();
            spam_delivered += report.delivered.len();
        }

        // --- Benign: the same relay pool writes all month.
        let mut benign_delivered = 0usize;
        let mut benign_first_try = 0usize;
        for i in 0..config.benign_per_month {
            let relay = i % config.benign_relays;
            let at = month_start + SimDuration::from_micros(rng.below(month.as_micros()));
            let mut sender = SendingMta::new(
                &format!("relay{relay}.example"),
                vec![relay_ips[relay]],
                MtaProfile::sendmail(),
            );
            sender.submit(
                VICTIM_DOMAIN.parse().expect("valid domain"),
                ReversePath::Address(
                    format!("user{i}m{m}@relay{relay}.example").parse().expect("valid sender"),
                ),
                vec![format!("staff{}@{VICTIM_DOMAIN}", i % 25).parse().expect("valid rcpt")],
                Message::builder().body("monthly business").build(),
                at,
            );
            sender.drain(at, &mut world);
            let records = sender.records();
            if records.iter().any(|r| r.delivered) {
                benign_delivered += 1;
                if records.len() == 1 {
                    benign_first_try += 1; // no deferral: whitelisted path
                }
            }
        }

        // Month-end maintenance, as a deployment's cron job would run.
        let month_end = month_start + month;
        let store_size = {
            let server = world.server_mut(VICTIM_MX_IP).expect("victim server");
            let gl = server.greylist_mut().expect("greylist enabled");
            gl.maintain(month_end);
            gl.store().len()
        };

        months.push(MonthRow {
            month: m + 1,
            spam_block_rate: 1.0 - spam_delivered as f64 / spam_sent.max(1) as f64,
            benign_delivery_rate: benign_delivered as f64 / config.benign_per_month.max(1) as f64,
            benign_awl_rate: benign_first_try as f64 / config.benign_per_month.max(1) as f64,
            store_size,
        });
    }
    spamward_mta::metrics::collect_world(&world, reg);
    trace_lines.extend(world.events.lines());
    LongTermResult { months }
}

impl LongTermResult {
    /// The monthly trajectory as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Month",
            "Spam blocked",
            "Benign delivered",
            "Benign via AWL",
            "Store size",
        ])
        .with_title("Long-term stability (auto-whitelist enabled, monthly sweeps)");
        for m in &self.months {
            t.row(vec![
                m.month.to_string(),
                format!("{:.1}%", m.spam_block_rate * 100.0),
                format!("{:.1}%", m.benign_delivery_rate * 100.0),
                format!("{:.1}%", m.benign_awl_rate * 100.0),
                m.store_size.to_string(),
            ]);
        }
        t
    }
}

impl fmt::Display for LongTermResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table())?;
        writeln!(
            f,
            "max month-to-month block-rate swing: {:.1} pp (Sochor: \"remained constant\")",
            self.max_block_rate_swing() * 100.0
        )
    }
}

/// Registry entry for the long-term stability run.
pub struct LongTermExperiment;

impl Experiment for LongTermExperiment {
    fn id(&self) -> &'static str {
        "longterm"
    }

    fn title(&self) -> &'static str {
        "Month-over-month stability with the auto-whitelist on"
    }

    fn paper_artifact(&self) -> &'static str {
        "§VII (Sochor)"
    }

    fn run(&self, config: &HarnessConfig) -> Result<Report, HarnessError> {
        let module_config = match config.scale {
            Scale::Paper => LongTermConfig {
                seed: config.seed_or(LongTermConfig::default().seed),
                event_budget: config.event_budget,
                ..Default::default()
            },
            Scale::Quick => LongTermConfig {
                seed: config.seed_or(LongTermConfig::default().seed),
                spam_campaigns_per_month: 15,
                benign_per_month: 60,
                event_budget: config.event_budget,
                ..Default::default()
            },
        };
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        let (metrics, trace_lines) = report.obs_mut();
        let result = run_with_obs(&module_config, config.trace, metrics, trace_lines);
        crate::harness::ensure_completed(self.id(), report.metrics())?;
        report
            .push_table(result.table())
            .push_scalar("max block-rate swing (pp)", result.max_block_rate_swing() * 100.0);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> LongTermResult {
        run(&LongTermConfig {
            spam_campaigns_per_month: 15,
            benign_per_month: 60,
            ..Default::default()
        })
    }

    #[test]
    fn block_rate_is_stable_across_months() {
        let r = quick();
        assert_eq!(r.months.len(), 4);
        for m in &r.months {
            assert_eq!(
                m.spam_block_rate, 1.0,
                "month {}: fire-and-forget spam must stay fully blocked",
                m.month
            );
            assert_eq!(m.benign_delivery_rate, 1.0, "month {}: benign mail must deliver", m.month);
        }
        assert_eq!(r.max_block_rate_swing(), 0.0);
    }

    #[test]
    fn auto_whitelist_learns_the_relay_pool() {
        let r = quick();
        // Month 1: relays are unknown — most mail waits out the delay.
        // By the last month every relay has earned the AWL and benign mail
        // flows on the first attempt.
        let first = r.months.first().unwrap();
        let last = r.months.last().unwrap();
        assert!(
            last.benign_awl_rate > first.benign_awl_rate,
            "AWL should grow: month1 {:.2} vs month4 {:.2}",
            first.benign_awl_rate,
            last.benign_awl_rate
        );
        // Each relay must earn its own 5 passes in month 1 (distinct /24s).
        assert!(first.benign_awl_rate < 0.5, "month 1 too easy: {:.2}", first.benign_awl_rate);
        assert!(
            last.benign_awl_rate > 0.9,
            "mature AWL should cover the pool: {:.2}",
            last.benign_awl_rate
        );
    }

    #[test]
    fn store_growth_is_bounded_by_maintenance() {
        let r = quick();
        // Spam triplets are pending-only and expire within 2 days, so the
        // store tracks mostly the benign population rather than growing
        // with cumulative spam volume.
        let last = r.months.last().unwrap();
        let month1 = r.months.first().unwrap();
        assert!(
            last.store_size < month1.store_size * 4,
            "store must not grow linearly with spam: month1 {} vs month4 {}",
            month1.store_size,
            last.store_size
        );
    }

    #[test]
    fn renders() {
        let out = quick().to_string();
        assert!(out.contains("Long-term stability"));
        assert!(out.contains("Sochor"));
    }
}

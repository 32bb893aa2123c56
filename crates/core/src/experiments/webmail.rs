//! Table III — webmail delivery attempts against a 6-hour greylist.
//!
//! Each of the ten provider models sends one message to the victim server
//! greylisting at 21 600 s; we record every attempt's delay, the number of
//! distinct source addresses, and whether the message eventually arrived.

use crate::experiments::worlds::{self, VICTIM_DOMAIN, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report};
use spamward_analysis::{fmt_min_sec, Table};
use spamward_mta::OutboundStatus;
use spamward_sim::{SimDuration, SimTime};
use spamward_smtp::{EmailAddress, Message, ReversePath};
use spamward_webmail::WebmailProvider;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Configuration of the webmail experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct WebmailConfig {
    /// RNG seed.
    pub seed: u64,
    /// The greylisting threshold (paper: 6 hours).
    pub threshold: SimDuration,
    /// Spread each provider's pool across /24s instead of within one
    /// (ablation; the paper-consistent default is one subnet).
    pub spread_subnets: bool,
}

impl Default for WebmailConfig {
    fn default() -> Self {
        WebmailConfig { seed: 360, threshold: SimDuration::from_hours(6), spread_subnets: false }
    }
}

/// One Table III row.
#[derive(Debug, Clone, PartialEq)]
pub struct WebmailRow {
    /// Provider name.
    pub provider: String,
    /// Whether all attempts used one source address.
    pub same_ip: bool,
    /// Distinct addresses used.
    pub distinct_ips: usize,
    /// Total delivery attempts.
    pub attempts: u32,
    /// Whether the message was delivered.
    pub delivered: bool,
    /// Delay of each retry (not counting the initial attempt) since
    /// submission.
    pub delays: Vec<SimDuration>,
    /// The paper's attempt count, for comparison.
    pub attempts_in_paper: u32,
    /// The paper's delivery verdict, for comparison.
    pub delivered_in_paper: bool,
}

/// The regenerated Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct WebmailResult {
    /// One row per provider, paper order.
    pub rows: Vec<WebmailRow>,
    /// The threshold used.
    pub threshold: SimDuration,
}

/// Runs the Table III experiment, folding per-provider retry metrics and
/// every per-provider world into `obs`.
pub fn run(config: &WebmailConfig, obs: &mut Obs) -> WebmailResult {
    let mut rows = Vec::new();
    for (idx, provider) in WebmailProvider::table_iii().into_iter().enumerate() {
        // Fresh victim per provider so triplet state never leaks across
        // rows.
        let mut world = obs.arm(worlds::greylist_world(config.seed, config.threshold));
        let pool_base = Ipv4Addr::new(198, 18, idx as u8, 1);
        let mut sender = if config.spread_subnets {
            provider.build_sender_spread(pool_base, config.seed)
        } else {
            provider.build_sender(pool_base, config.seed)
        };

        let sender_addr: EmailAddress =
            format!("tester@{}", provider.name).parse().expect("valid provider sender");
        let rcpt: EmailAddress =
            format!("testaccount@{VICTIM_DOMAIN}").parse().expect("valid recipient");
        let message = Message::builder()
            .header("Subject", "greylisting probe")
            .body("hello from the webmail experiment")
            .build();
        sender.submit(
            VICTIM_DOMAIN.parse().expect("valid victim domain"),
            ReversePath::Address(sender_addr),
            vec![rcpt],
            message,
            SimTime::ZERO,
        );
        sender.drain(SimTime::ZERO, &mut world);
        spamward_webmail::metrics::collect_provider(&provider, &sender, &mut obs.registry);
        obs.collect(&world);

        let records = sender.records();
        let used_ips: HashSet<Ipv4Addr> = records.iter().map(|r| r.source_ip).collect();
        let delivered = sender.queue()[0].status == OutboundStatus::Delivered;
        let delays = records.iter().skip(1).map(|r| r.since_enqueue).collect();
        debug_assert_eq!(
            world.server(VICTIM_MX_IP).expect("victim").mailbox().len(),
            usize::from(delivered)
        );

        rows.push(WebmailRow {
            provider: provider.name.to_string(),
            same_ip: used_ips.len() == 1,
            distinct_ips: used_ips.len(),
            attempts: records.len() as u32,
            delivered,
            delays,
            attempts_in_paper: provider.attempts_in_paper,
            delivered_in_paper: provider.delivered_in_paper,
        });
    }
    WebmailResult { rows, threshold: config.threshold }
}

impl WebmailResult {
    /// Rows where the measured deliver-verdict matches the paper's.
    pub fn verdict_matches(&self) -> usize {
        self.rows.iter().filter(|r| r.delivered == r.delivered_in_paper).count()
    }
}

impl WebmailResult {
    /// Table III as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t =
            Table::new(vec!["Provider", "Same IP", "Attempts", "Deliver", "Delays (min:sec)"])
                .with_title(&format!(
                    "Table III: webmail delivery attempts with a {} greylisting threshold",
                    self.threshold
                ));
        for r in &self.rows {
            let same_ip =
                if r.same_ip { "v".to_owned() } else { format!("x ({})", r.distinct_ips) };
            let mut delays: Vec<String> =
                r.delays.iter().take(8).map(|&d| fmt_min_sec(d)).collect();
            if r.delays.len() > 8 {
                delays.push(format!("... ({} total)", r.delays.len()));
            }
            t.row(vec![
                r.provider.clone(),
                same_ip,
                r.attempts.to_string(),
                if r.delivered { "v".into() } else { "x".into() },
                delays.join(", "),
            ]);
        }
        t
    }
}

/// Registry entry for the Table III webmail probes.
pub struct WebmailExperiment;

impl Experiment for WebmailExperiment {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn title(&self) -> &'static str {
        "Webmail retries at a 6 h greylisting threshold"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table III"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        // Ten providers, one message each: already quick at paper scale.
        let module_config = WebmailConfig {
            seed: config.seed_or(WebmailConfig::default().seed),
            ..Default::default()
        };
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        report
            .push_table(result.table())
            .push_scalar("providers", result.rows.len() as f64)
            .push_scalar("verdicts matching paper", result.verdict_matches() as f64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> WebmailResult {
        run(&WebmailConfig::default(), &mut Obs::default())
    }

    #[test]
    fn deliver_column_matches_paper_exactly() {
        let r = result();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.verdict_matches(), 10, "{r:?}");
        let aol = r.rows.iter().find(|x| x.provider == "aol.com").unwrap();
        assert!(!aol.delivered, "aol gives up after 31 minutes");
        assert_eq!(aol.attempts, 5);
    }

    #[test]
    fn attempt_counts_close_to_paper() {
        // qq.com's published row is internally inconsistent (delivered,
        // but its listed ladder stops at 204:56 < 6 h); our model recovers
        // every other provider's count exactly.
        let r = result();
        for row in &r.rows {
            if row.provider == "qq.com" {
                assert!(row.delivered);
                assert!((row.attempts as i64 - row.attempts_in_paper as i64).abs() <= 2);
                continue;
            }
            assert_eq!(
                row.attempts, row.attempts_in_paper,
                "{}: measured {} vs paper {}",
                row.provider, row.attempts, row.attempts_in_paper
            );
        }
    }

    #[test]
    fn same_ip_column_matches_paper() {
        let r = result();
        for row in &r.rows {
            let provider = WebmailProvider::table_iii()
                .into_iter()
                .find(|p| *p.name == *row.provider)
                .unwrap();
            assert_eq!(row.same_ip, provider.same_ip(), "{}", row.provider);
            assert_eq!(row.distinct_ips.min(7), provider.distinct_ips.min(7), "{}", row.provider);
        }
    }

    #[test]
    fn gmail_delays_match_published_ladder() {
        let r = result();
        let gmail = r.rows.iter().find(|x| x.provider == "gmail.com").unwrap();
        let rendered: Vec<String> = gmail.delays.iter().map(|&d| fmt_min_sec(d)).collect();
        assert_eq!(
            rendered,
            vec!["6:02", "29:02", "56:36", "98:44", "162:03", "229:44", "309:05", "434:46"]
        );
        assert!(gmail.delivered);
    }

    #[test]
    fn delivery_always_past_threshold() {
        let r = result();
        for row in r.rows.iter().filter(|r| r.delivered) {
            let last = *row.delays.last().unwrap();
            assert!(last >= r.threshold, "{} delivered at {last} before threshold", row.provider);
        }
    }

    #[test]
    fn subnet_spread_ablation_slows_multi_ip_providers() {
        let base = result();
        let spread =
            run(&WebmailConfig { spread_subnets: true, ..Default::default() }, &mut Obs::default());
        let attempts = |r: &WebmailResult, name: &str| {
            r.rows.iter().find(|x| x.provider == name).unwrap().attempts
        };
        // mail.ru rotates 7 addresses on a dense ladder: with each address
        // in its own /24 every address must independently age past 6 h,
        // costing extra attempts. (gmail's sparser ladder happens to line
        // up so that the rotation costs nothing — the ablation shows the
        // effect is ladder-dependent.)
        assert!(
            attempts(&spread, "mail.ru") > attempts(&base, "mail.ru"),
            "spread {} !> base {}",
            attempts(&spread, "mail.ru"),
            attempts(&base, "mail.ru")
        );
        // Single-IP providers are unaffected.
        assert_eq!(attempts(&spread, "yahoo.co.uk"), attempts(&base, "yahoo.co.uk"));
    }
}

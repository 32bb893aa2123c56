//! §VI cost accounting — what the defenses charge "the Internet at large".
//!
//! The paper's validity discussion notes that greylisting and nolisting
//! have "a cost for the system (for example in terms of disk space and
//! computation resources) and for the Internet community at large (because
//! of the increased traffic and bandwidth)" — but never quantifies it.
//! This experiment does: the same benign workload runs against an
//! unprotected, a nolisting, and a greylisting victim, and we count the
//! SMTP connections, DNS queries, triplet-store entries and sender
//! wall-clock each configuration consumed per delivered message.

use crate::experiments::worlds::{self, VICTIM_DOMAIN, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use spamward_analysis::Table;
use spamward_mta::{MailWorld, MtaProfile, SendingMta};
use spamward_sim::{SimDuration, SimTime};
use spamward_smtp::{Message, ReversePath};
use std::net::Ipv4Addr;

/// Configuration of the cost accounting run.
#[derive(Debug, Clone, PartialEq)]
pub struct CostsConfig {
    /// RNG seed.
    pub seed: u64,
    /// Benign messages per configuration.
    pub messages: usize,
    /// Greylisting threshold for the protected configuration.
    pub threshold: SimDuration,
}

impl Default for CostsConfig {
    fn default() -> Self {
        CostsConfig { seed: 606, messages: 300, threshold: SimDuration::from_secs(300) }
    }
}

/// Measured costs of one victim configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Configuration label.
    pub setup: String,
    /// Messages delivered.
    pub delivered: usize,
    /// Total TCP connection attempts on the simulated network.
    pub connections: u64,
    /// Total DNS queries the authority served.
    pub dns_queries: u64,
    /// Triplet-store entries left behind (disk-space proxy).
    pub store_entries: usize,
    /// Total delivery delay summed over messages.
    pub total_delay: SimDuration,
}

impl CostRow {
    /// Connections per delivered message.
    pub fn connections_per_delivery(&self) -> f64 {
        self.connections as f64 / self.delivered.max(1) as f64
    }
}

/// The full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CostsResult {
    /// One row per configuration.
    pub rows: Vec<CostRow>,
}

impl CostsResult {
    /// Looks up a configuration by label.
    pub fn row(&self, setup: &str) -> Option<&CostRow> {
        self.rows.iter().find(|r| r.setup == setup)
    }
}

fn run_setup(config: &CostsConfig, setup: &str, world: MailWorld, obs: &mut Obs) -> CostRow {
    let mut world = obs.arm(world);
    let dns_before = world.dns.queries_served();
    let mut delivered = 0usize;
    let mut total_delay = SimDuration::ZERO;
    for i in 0..config.messages {
        let mut sender = SendingMta::new(
            &format!("relay{i}.example"),
            vec![Ipv4Addr::new(100, 80, (i / 200) as u8, (1 + i % 200) as u8)],
            MtaProfile::postfix(),
        );
        sender.submit(
            VICTIM_DOMAIN.parse().expect("valid domain"),
            ReversePath::Address(
                format!("user{i}@relay{i}.example").parse().expect("valid sender"),
            ),
            vec![format!("staff{}@{VICTIM_DOMAIN}", i % 40).parse().expect("valid rcpt")],
            Message::builder().body("cost accounting").build(),
            SimTime::ZERO,
        );
        sender.drain(SimTime::ZERO, &mut world);
        if let Some(r) = sender.records().iter().find(|r| r.delivered) {
            delivered += 1;
            total_delay += r.since_enqueue;
        }
        spamward_mta::metrics::collect_sender(&sender, &mut obs.registry);
    }
    obs.collect(&world);
    let store_entries =
        world.server(VICTIM_MX_IP).and_then(|s| s.greylist()).map(|g| g.store().len()).unwrap_or(0);
    CostRow {
        setup: setup.to_owned(),
        delivered,
        connections: world.network.connects_attempted(),
        dns_queries: world.dns.queries_served() - dns_before,
        store_entries,
        total_delay,
    }
}

/// Runs the three configurations, folding every setup's senders and world
/// into `obs`.
pub fn run(config: &CostsConfig, obs: &mut Obs) -> CostsResult {
    let rows = vec![
        run_setup(config, "unprotected", worlds::plain_world(config.seed), obs),
        run_setup(config, "nolisting", worlds::nolisting_world(config.seed), obs),
        run_setup(
            config,
            "greylisting",
            worlds::greylist_world(config.seed, config.threshold),
            obs,
        ),
    ];
    CostsResult { rows }
}

impl CostsResult {
    /// The cost comparison as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Setup",
            "Delivered",
            "TCP connects",
            "Conn/delivery",
            "DNS queries",
            "Store entries",
            "Mean delay",
        ])
        .with_title("Section VI cost accounting (same benign workload per setup)");
        for r in &self.rows {
            let mean_delay = if r.delivered == 0 {
                SimDuration::ZERO
            } else {
                r.total_delay / r.delivered as u64
            };
            t.row(vec![
                r.setup.clone(),
                r.delivered.to_string(),
                r.connections.to_string(),
                format!("{:.2}", r.connections_per_delivery()),
                r.dns_queries.to_string(),
                r.store_entries.to_string(),
                mean_delay.to_string(),
            ]);
        }
        t
    }
}

/// Registry entry for the §VI cost accounting.
pub struct CostsExperiment;

impl Experiment for CostsExperiment {
    fn id(&self) -> &'static str {
        "costs"
    }

    fn title(&self) -> &'static str {
        "Defense cost accounting per delivered message"
    }

    fn paper_artifact(&self) -> &'static str {
        "§VI validity"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = CostsConfig {
            seed: config.seed_or(CostsConfig::default().seed),
            messages: match config.scale {
                Scale::Paper => CostsConfig::default().messages,
                Scale::Quick => 60,
            },
            ..Default::default()
        };
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        report.push_table(result.table());
        for row in &result.rows {
            report.push_scalar(
                &format!("connections per delivery: {}", row.setup),
                row.connections_per_delivery(),
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CostsResult {
        run(&CostsConfig { messages: 80, ..Default::default() }, &mut Obs::default())
    }

    #[test]
    fn everything_delivers_in_all_setups() {
        let r = quick();
        for row in &r.rows {
            assert_eq!(row.delivered, 80, "{}: benign mail must always deliver", row.setup);
        }
    }

    #[test]
    fn greylisting_costs_connections_and_state() {
        let r = quick();
        let base = r.row("unprotected").unwrap();
        let grey = r.row("greylisting").unwrap();
        // One retry per message ⇒ roughly double the connections.
        assert!(
            grey.connections >= base.connections * 2 - 5,
            "greylist connects {} vs base {}",
            grey.connections,
            base.connections
        );
        assert!(grey.connections_per_delivery() > base.connections_per_delivery());
        // One triplet per (sender, rcpt) pair lingers in the store.
        assert_eq!(grey.store_entries, 80);
        assert_eq!(base.store_entries, 0);
        // And mail is slower.
        assert!(grey.total_delay > base.total_delay);
    }

    #[test]
    fn nolisting_costs_an_extra_connect_but_no_delay() {
        let r = quick();
        let base = r.row("unprotected").unwrap();
        let nl = r.row("nolisting").unwrap();
        // Each delivery burns one refused connect on the dead primary.
        assert!(
            nl.connections >= base.connections * 2 - 5,
            "nolisting connects {} vs base {}",
            nl.connections,
            base.connections
        );
        // But delivery delay stays (essentially) zero — the paper's "it
        // should not introduce any delay" claim.
        assert!(
            nl.total_delay < SimDuration::from_secs(80),
            "nolisting must not delay mail: {}",
            nl.total_delay
        );
        assert_eq!(nl.store_entries, 0);
    }
}

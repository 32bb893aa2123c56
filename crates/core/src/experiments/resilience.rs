//! Resilience extension — fault profiles × defenses.
//!
//! The paper measures greylisting and nolisting against a *well-behaved*
//! internet. This experiment injects the deterministic fault profiles of
//! `spamward_net::faults` (host outages, link loss, DNS degradation,
//! mid-session SMTP aborts, greylist-store outages) under each defense and
//! measures whether a resilient sending MTA — the Table IV postfix
//! schedule hardened with [`RetryPolicy::resilient`]'s backoff and
//! per-destination circuit breaker — still delivers legitimate mail, and
//! at what cost in attempts and degraded greylist decisions.

use crate::experiments::worlds::{self, VICTIM_DOMAIN, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use spamward_analysis::Table;
use spamward_dns::DomainName;
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::{
    DegradationMode, MailWorld, MtaProfile, OutboundStatus, RetryPolicy, SendingMta,
};
use spamward_net::{FaultPlan, FaultProfile, FaultWindow};
use spamward_sim::{DetRng, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// The defense configurations swept against every fault profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// No defense at all (baseline delivery under faults).
    Plain,
    /// Greylisting whose store outage admits mail unchecked.
    GreylistFailOpen,
    /// Greylisting whose store outage defers everything.
    GreylistFailClosed,
    /// Nolisting whose live secondary also has planned maintenance
    /// windows ([`worlds::planned_downtime_world`]).
    NolistingPlannedDowntime,
}

impl Defense {
    /// All defenses, sweep order.
    pub const ALL: [Defense; 4] = [
        Defense::Plain,
        Defense::GreylistFailOpen,
        Defense::GreylistFailClosed,
        Defense::NolistingPlannedDowntime,
    ];

    /// Human-readable label (table rows).
    pub fn label(&self) -> &'static str {
        match self {
            Defense::Plain => "plain",
            Defense::GreylistFailOpen => "greylist fail-open",
            Defense::GreylistFailClosed => "greylist fail-closed",
            Defense::NolistingPlannedDowntime => "nolisting planned-downtime",
        }
    }
}

/// Configuration of the resilience sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// RNG seed.
    pub seed: u64,
    /// Legitimate messages submitted per cell (staggered across the fault
    /// windows).
    pub messages: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { seed: 42, messages: 8 }
    }
}

/// One (fault profile, defense) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceCell {
    /// Fault profile name.
    pub profile: &'static str,
    /// Defense under test.
    pub defense: Defense,
    /// Messages that reached a mailbox.
    pub delivered: u64,
    /// Messages that out-lived the queue.
    pub expired: u64,
    /// Delivery attempts actually made.
    pub attempts: u64,
    /// Circuit-breaker openings.
    pub breaker_trips: u64,
    /// Attempts held back by an open breaker.
    pub breaker_skipped: u64,
    /// Retries pushed back by exponential backoff.
    pub backoffs: u64,
    /// Greylist decisions admitted unchecked during a store outage.
    pub fail_open: u64,
    /// Greylist decisions deferred during a store outage.
    pub fail_closed: u64,
}

/// The full profile × defense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceResult {
    /// One cell per (profile, defense), profile-major sweep order.
    pub cells: Vec<ResilienceCell>,
}

impl ResilienceResult {
    /// Looks up one cell.
    pub fn cell(&self, profile: &str, defense: Defense) -> Option<&ResilienceCell> {
        self.cells.iter().find(|c| c.profile == profile && c.defense == defense)
    }

    /// Total delivered across the whole sweep.
    pub fn total_delivered(&self) -> u64 {
        self.cells.iter().map(|c| c.delivered).sum()
    }

    /// Total messages lost (expired) across the whole sweep.
    pub fn total_expired(&self) -> u64 {
        self.cells.iter().map(|c| c.expired).sum()
    }

    /// The matrix as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Profile",
            "Defense",
            "Delivered",
            "Expired",
            "Attempts",
            "Trips",
            "Skips",
            "Backoffs",
            "FailOpen",
            "FailClosed",
        ])
        .with_title("Resilience: fault profiles x defenses (resilient postfix sender)");
        for c in &self.cells {
            t.row(vec![
                c.profile.to_owned(),
                c.defense.label().to_owned(),
                c.delivered.to_string(),
                c.expired.to_string(),
                c.attempts.to_string(),
                c.breaker_trips.to_string(),
                c.breaker_skipped.to_string(),
                c.backoffs.to_string(),
                c.fail_open.to_string(),
                c.fail_closed.to_string(),
            ]);
        }
        t
    }
}

fn victim_domain() -> DomainName {
    VICTIM_DOMAIN.parse().expect("victim domain is valid")
}

/// The planned maintenance windows of the nolisting defense: ten minutes
/// of downtime starting at t+10 min, squarely inside most fault windows.
fn maintenance_windows() -> Vec<FaultWindow> {
    vec![FaultWindow::new(
        SimTime::ZERO + SimDuration::from_mins(10),
        SimTime::ZERO + SimDuration::from_mins(20),
    )]
}

fn build_world(defense: Defense, seed: u64) -> MailWorld {
    match defense {
        Defense::Plain => worlds::plain_world(seed),
        Defense::GreylistFailOpen | Defense::GreylistFailClosed => {
            let mode = if defense == Defense::GreylistFailOpen {
                DegradationMode::FailOpen
            } else {
                DegradationMode::FailClosed
            };
            let cfg =
                GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist();
            worlds::degraded_greylist_world(seed, Greylist::new(cfg), mode)
        }
        Defense::NolistingPlannedDowntime => {
            worlds::planned_downtime_world(seed, maintenance_windows())
        }
    }
}

/// Runs the sweep, folding every cell's world and sender into `obs`.
pub fn run(config: &ResilienceConfig, obs: &mut Obs) -> ResilienceResult {
    let mut cells = Vec::new();
    for profile in FaultProfile::catalog() {
        for (d_idx, &defense) in Defense::ALL.iter().enumerate() {
            let mut cell_rng = DetRng::seed(config.seed)
                .fork("resilience")
                .fork(profile.name)
                .fork_idx("defense", d_idx as u64);
            let cell_seed = cell_rng.next_u64();
            let plan = FaultPlan::compile(&profile, cell_seed);

            let mut world = obs.arm(build_world(defense, cell_seed));
            // Servers are installed; now wire the plan into network,
            // resolver, SMTP layer and greylist stores.
            world.install_faults(&plan);

            let mut sender = SendingMta::new(
                "relay.example",
                vec![Ipv4Addr::new(198, 51, 100, 1)],
                MtaProfile::postfix(),
            )
            .with_seed(cell_rng.next_u64())
            .with_retry_policy(RetryPolicy::resilient());
            for i in 0..config.messages {
                let at = SimTime::ZERO + SimDuration::from_mins(4) * (i as u64);
                sender.submit(
                    victim_domain(),
                    spamward_smtp::ReversePath::Address(
                        "sender@relay.example".parse().expect("valid sender"),
                    ),
                    vec![format!("user{i}@{VICTIM_DOMAIN}").parse().expect("valid recipient")],
                    spamward_smtp::Message::builder()
                        .header("Subject", format!("resilience probe {i}"))
                        .body("legitimate mail under faults")
                        .build(),
                    at,
                );
            }

            // The installed plan's window edges fire in the drain's own
            // event stream.
            sender.drain(SimTime::ZERO, &mut world);

            obs.collect(&world);
            spamward_mta::metrics::collect_sender(&sender, &mut obs.registry);

            let server_stats = world.server(VICTIM_MX_IP).map(|s| s.stats()).unwrap_or_default();
            cells.push(ResilienceCell {
                profile: profile.name,
                defense,
                delivered: sender
                    .queue()
                    .iter()
                    .filter(|m| m.status == OutboundStatus::Delivered)
                    .count() as u64,
                expired: sender
                    .queue()
                    .iter()
                    .filter(|m| m.status == OutboundStatus::Expired)
                    .count() as u64,
                attempts: sender.records().len() as u64,
                breaker_trips: sender.breaker_trips(),
                breaker_skipped: sender.breaker_skipped(),
                backoffs: sender.backoffs_applied(),
                fail_open: server_stats.greylist_failed_open,
                fail_closed: server_stats.greylist_failed_closed,
            });
        }
    }
    ResilienceResult { cells }
}

/// Registry entry for the resilience sweep.
pub struct ResilienceExperiment;

impl ResilienceExperiment {
    /// The module config a harness config maps to.
    fn config(harness: &HarnessConfig) -> ResilienceConfig {
        ResilienceConfig {
            seed: harness.seed_or(ResilienceConfig::default().seed),
            messages: match harness.scale {
                Scale::Paper => ResilienceConfig::default().messages,
                Scale::Quick => 3,
            },
        }
    }
}

impl Experiment for ResilienceExperiment {
    fn id(&self) -> &'static str {
        "resilience"
    }

    fn title(&self) -> &'static str {
        "Fault injection and resilient delivery paths"
    }

    fn paper_artifact(&self) -> &'static str {
        "DESIGN.md fault model"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = Self::config(config);
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        let expected = (module_config.messages * result.cells.len()) as f64;
        report
            .push_table(result.table())
            .push_scalar("messages delivered (all cells)", result.total_delivered() as f64)
            .push_scalar("messages expired (all cells)", result.total_expired() as f64)
            .push_scalar("messages submitted (all cells)", expected)
            .push_scalar(
                "breaker trips (all cells)",
                result.cells.iter().map(|c| c.breaker_trips).sum::<u64>() as f64,
            )
            .push_scalar(
                "greylist fail-open admissions",
                result.cells.iter().map(|c| c.fail_open).sum::<u64>() as f64,
            )
            .push_scalar(
                "greylist fail-closed deferrals",
                result.cells.iter().map(|c| c.fail_closed).sum::<u64>() as f64,
            );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_mta::metrics as mta_metrics;
    use spamward_net::metrics as net_metrics;

    fn quick() -> ResilienceResult {
        run(&ResilienceConfig { messages: 3, ..Default::default() }, &mut Obs::default())
    }

    #[test]
    fn sweep_covers_every_profile_and_defense() {
        let r = quick();
        assert_eq!(r.cells.len(), FaultProfile::catalog().len() * Defense::ALL.len());
        for profile in FaultProfile::catalog() {
            for defense in Defense::ALL {
                assert!(r.cell(profile.name, defense).is_some(), "{} missing", profile.name);
            }
        }
    }

    #[test]
    fn baseline_profile_delivers_everything_without_resilience_machinery() {
        let r = quick();
        for defense in Defense::ALL {
            let c = r.cell("baseline", defense).unwrap();
            assert_eq!(c.delivered, 3, "{}: faultless runs deliver all", defense.label());
            assert_eq!(c.expired, 0);
            assert_eq!(c.fail_open + c.fail_closed, 0);
        }
    }

    #[test]
    fn every_message_eventually_delivers_under_all_faults() {
        // The acceptance bar: no experiment panics and no legitimate mail
        // is lost — every fault profile is survivable with the resilient
        // retry policy, because all fault windows close well before the
        // postfix queue lifetime.
        let r = quick();
        for c in &r.cells {
            assert_eq!(c.delivered, 3, "{} × {} lost mail", c.profile, c.defense.label());
            assert_eq!(c.expired, 0, "{} × {} expired mail", c.profile, c.defense.label());
        }
    }

    #[test]
    fn faults_cost_attempts_and_exercise_the_machinery() {
        let r = quick();
        let baseline: u64 =
            Defense::ALL.iter().map(|&d| r.cell("baseline", d).unwrap().attempts).sum();
        let chaos: u64 =
            Defense::ALL.iter().map(|&d| r.cell("all_faults", d).unwrap().attempts).sum();
        assert!(chaos > baseline, "faults must cost extra attempts ({chaos} vs {baseline})");

        let trips: u64 = r.cells.iter().map(|c| c.breaker_trips).sum();
        assert!(trips > 0, "outage profiles must trip the breaker");
        let fail_open: u64 = r.cells.iter().map(|c| c.fail_open).sum();
        let fail_closed: u64 = r.cells.iter().map(|c| c.fail_closed).sum();
        assert!(fail_open > 0, "store outages must admit mail in fail-open cells");
        assert!(fail_closed > 0, "store outages must defer mail in fail-closed cells");
    }

    #[test]
    fn degradation_counters_land_in_the_matching_cells() {
        // A store outage must *only* produce fail-open admissions in
        // fail-open cells and deferrals in fail-closed cells — the two
        // modes are mutually exclusive per server.
        let r = quick();
        for c in &r.cells {
            match c.defense {
                Defense::GreylistFailOpen => assert_eq!(c.fail_closed, 0, "{}", c.profile),
                Defense::GreylistFailClosed => assert_eq!(c.fail_open, 0, "{}", c.profile),
                _ => assert_eq!(c.fail_open + c.fail_closed, 0, "{}", c.profile),
            }
        }
        // smtp_chaos (store down 2–28 min) must exercise both modes; in
        // all_faults the fail-open cell's in-window RCPTs can all be eaten
        // by SMTP aborts first, so only the deferral side is asserted.
        assert!(r.cell("smtp_chaos", Defense::GreylistFailOpen).unwrap().fail_open > 0);
        assert!(r.cell("smtp_chaos", Defense::GreylistFailClosed).unwrap().fail_closed > 0);
    }

    #[test]
    fn registry_run_exports_fault_breaker_and_degraded_metrics() {
        let config = HarnessConfig { scale: Scale::Quick, ..Default::default() };
        let report = ResilienceExperiment.run(&config).unwrap();
        let reg = report.metrics();
        assert!(reg.counter(net_metrics::FAULT_LINK_DROPPED).unwrap_or(0) > 0);
        assert!(reg.counter(net_metrics::FAULT_OUTAGE_TIMEOUTS).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::BREAKER_TRIPS).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::BREAKER_BACKOFFS).is_some());
        assert!(reg.counter(mta_metrics::GREYLIST_DEGRADED_FAIL_OPEN).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::GREYLIST_DEGRADED_FAIL_CLOSED).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::FAULT_BOUNDARY_EVENTS).unwrap_or(0) > 0);
        assert!(report.scalar("messages delivered (all cells)").is_some());
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = quick();
        let b = quick();
        assert_eq!(a, b);
    }
}

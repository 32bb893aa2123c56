//! Hypothetical next-generation bots — the paper's §VI warning made
//! executable.
//!
//! The paper closes by noting that both defenses work only because current
//! malware is lazy, and that "the effectiveness of these two techniques
//! can change in the future". This module models the obvious adaptations a
//! bot author could ship, so the suite can measure *when* each defense
//! becomes obsolete:
//!
//! * [`AdaptiveBot::full_compliance`] — walks MXs per RFC 5321 **and**
//!   retries like an MTA: defeats nolisting, greylisting, and their stack.
//! * [`AdaptiveBot::distributed_retry`] — retries, but each attempt comes
//!   from a *different* infected host (cheap for a botnet). Against
//!   triplet-keyed greylisting this is self-defeating: every attempt looks
//!   new, nothing ever ages past the delay.
//! * [`AdaptiveBot::subnet_botnet`] — distributed retry from hosts that
//!   share a /24 (a compromised campus or hosting range): Postgrey's
//!   default netmask keying treats them as one client, so the botnet
//!   passes. Exact-IP keying stops it — the sharpest argument the suite
//!   offers for reconsidering the /24 default.

use crate::behavior::{BotRetrySchedule, RetryBehavior};
use crate::bot::{BotRunReport, ChainActor};
use crate::campaign::Campaign;
use spamward_dns::DomainName;
use spamward_mta::{MailWorld, MxStrategy, WorldSim};
use spamward_sim::{DetRng, SimTime};
use spamward_smtp::{Dialect, EmailAddress};
use std::net::Ipv4Addr;

/// A configurable hypothetical bot.
#[derive(Debug, Clone)]
pub struct AdaptiveBot {
    /// Human-readable model name.
    pub name: String,
    /// Which MXs it targets.
    pub mx_strategy: MxStrategy,
    /// How it reacts to deferrals.
    pub retry: RetryBehavior,
    /// The infected hosts available; attempts rotate through them.
    pub hosts: Vec<Ipv4Addr>,
    /// Session dialect.
    pub dialect: Dialect,
    rng: DetRng,
}

impl AdaptiveBot {
    /// A bot that behaves exactly like a legitimate MTA at the protocol
    /// level and retries on a Kelihos-grade ladder. No SMTP-level defense
    /// in this suite stops it.
    pub fn full_compliance(ip: Ipv4Addr) -> Self {
        AdaptiveBot {
            name: "full-compliance".into(),
            mx_strategy: MxStrategy::RfcCompliant,
            retry: RetryBehavior::Scheduled(BotRetrySchedule::kelihos()),
            hosts: vec![ip],
            dialect: Dialect::compliant_mta("relay.legit-looking.example"),
            rng: DetRng::seed(0xADA9).fork("full-compliance"),
        }
    }

    /// A bot that retries each message from a different infected host.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty.
    pub fn distributed_retry(hosts: Vec<Ipv4Addr>) -> Self {
        assert!(!hosts.is_empty(), "a botnet needs at least one host");
        AdaptiveBot {
            name: "distributed-retry".into(),
            mx_strategy: MxStrategy::RfcCompliant,
            retry: RetryBehavior::Scheduled(BotRetrySchedule::kelihos()),
            hosts,
            dialect: Dialect::minimal_bot("distributed"),
            rng: DetRng::seed(0xADA9).fork("distributed"),
        }
    }

    /// [`AdaptiveBot::distributed_retry`] with all hosts inside one /24,
    /// `n` hosts starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 200` (must stay inside one /24).
    pub fn subnet_botnet(base: Ipv4Addr, n: usize) -> Self {
        assert!(n > 0 && n <= 200, "subnet botnet size {n} out of range");
        let base_bits = u32::from(base);
        let hosts = (0..n as u32).map(|i| Ipv4Addr::from(base_bits + i)).collect();
        AdaptiveBot { name: "subnet-botnet".into(), ..Self::distributed_retry(hosts) }
    }

    /// Runs a campaign, rotating source hosts per attempt.
    ///
    /// Mirrors [`crate::BotSample::run_campaign`] — one engine episode per
    /// recipient chain — but the host-rotation cursor persists *across*
    /// chains, which is what makes distributed retry expressible.
    pub fn run_campaign(
        &mut self,
        world: &mut MailWorld,
        campaign: &Campaign,
        start: SimTime,
        horizon: SimTime,
    ) -> BotRunReport {
        let mut report = BotRunReport::default();
        let mut host_cursor = 0usize;

        for rcpt in &campaign.recipients {
            let domain: DomainName = match rcpt.domain().parse() {
                Ok(d) => d,
                Err(_) => {
                    report.failed.push(rcpt.clone());
                    continue;
                }
            };
            let mut chain = ChainActor {
                name: crate::metrics::ACTOR_BOTNET_ADAPTIVE,
                hosts: self.hosts.clone(),
                host_cursor,
                dialect: self.dialect.clone(),
                strategy: self.mx_strategy,
                behavior: self.retry.clone(),
                sender: campaign.sender.clone(),
                message: campaign.message.clone(),
                rcpt: rcpt.clone(),
                domain,
                rng: self.rng.fork_idx("msg", report.attempts.len() as u64),
                record_mx_ranks: false,
                first_at: start,
                attempt_no: 0,
                attempts: Vec::new(),
                mx_rank_attempts: Vec::new(),
                delivered: false,
            };
            WorldSim::episode(world, &mut chain, start, Some(horizon));
            host_cursor = chain.host_cursor;
            report.attempts.extend(chain.attempts);
            if chain.delivered {
                report.delivered.push(rcpt.clone());
            } else {
                report.failed.push(rcpt.clone());
            }
        }
        report
    }
}

/// Convenience: distinct recipients as [`EmailAddress`]es for tests.
pub fn synthetic_recipients(domain: &str, n: usize) -> Vec<EmailAddress> {
    (0..n).map(|i| format!("user{i:04}@{domain}").parse().expect("valid recipient")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_dns::Zone;
    use spamward_greylist::{Greylist, GreylistConfig};
    use spamward_mta::ReceivingMta;
    use spamward_net::{PortState, SMTP_PORT};
    use spamward_sim::SimDuration;

    const VICTIM: &str = "victim.example";

    fn campaign() -> Campaign {
        let mut rng = DetRng::seed(4).fork("adaptive-test");
        Campaign::synthetic(VICTIM, 3, &mut rng)
    }

    fn greylist_world(netmask: u8) -> (MailWorld, Ipv4Addr) {
        let mut cfg =
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist();
        cfg.netmask = netmask;
        let mut w = MailWorld::new(88);
        let mx = Ipv4Addr::new(192, 0, 2, 40);
        w.install_server(
            ReceivingMta::new("mail.victim.example", mx).with_greylist(Greylist::new(cfg)),
        );
        w.dns.publish(Zone::single_mx(VICTIM.parse().unwrap(), mx));
        (w, mx)
    }

    fn stacked_world() -> MailWorld {
        let mut w = MailWorld::new(89);
        let dead = Ipv4Addr::new(192, 0, 2, 50);
        let live = Ipv4Addr::new(192, 0, 2, 51);
        w.network.host("smtp.victim.example").ip(dead).port(SMTP_PORT, PortState::Closed).build();
        w.install_server(
            ReceivingMta::new("smtp1.victim.example", live)
                .with_greylist(Greylist::new(GreylistConfig::default().without_auto_whitelist())),
        );
        w.dns.publish(Zone::nolisting(VICTIM.parse().unwrap(), dead, live));
        w
    }

    const HORIZON: SimTime = SimTime::from_secs(200_000);

    #[test]
    fn full_compliance_defeats_the_stack() {
        let mut w = stacked_world();
        let mut bot = AdaptiveBot::full_compliance(Ipv4Addr::new(203, 0, 113, 90));
        let report = bot.run_campaign(&mut w, &campaign(), SimTime::ZERO, HORIZON);
        assert_eq!(report.delivery_rate(), 1.0, "no SMTP-level defense can stop full compliance");
    }

    #[test]
    fn distributed_retry_is_self_defeating_against_greylisting() {
        // Hosts in different /24s: each retry is a fresh triplet.
        let hosts: Vec<Ipv4Addr> = (0..8u8).map(|i| Ipv4Addr::new(203, 0, 100 + i, 7)).collect();
        let (mut w, mx) = greylist_world(24);
        let mut bot = AdaptiveBot::distributed_retry(hosts);
        let report = bot.run_campaign(&mut w, &campaign(), SimTime::ZERO, HORIZON);
        assert_eq!(
            report.delivery_rate(),
            0.0,
            "address-hopping must never age a triplet past the delay"
        );
        assert_eq!(w.server(mx).unwrap().mailbox().len(), 0);
    }

    #[test]
    fn subnet_botnet_beats_default_netmask_but_not_exact_keying() {
        // Same /24: Postgrey's default keying merges the hosts.
        let (mut w, _) = greylist_world(24);
        let mut bot = AdaptiveBot::subnet_botnet(Ipv4Addr::new(203, 0, 113, 10), 20);
        let report = bot.run_campaign(&mut w, &campaign(), SimTime::ZERO, HORIZON);
        assert_eq!(report.delivery_rate(), 1.0, "/24 keying merges the subnet botnet");

        // Exact keying keeps every host separate again.
        let (mut w, _) = greylist_world(32);
        let mut bot = AdaptiveBot::subnet_botnet(Ipv4Addr::new(203, 0, 113, 10), 20);
        let report = bot.run_campaign(&mut w, &campaign(), SimTime::ZERO, HORIZON);
        assert_eq!(report.delivery_rate(), 0.0, "exact keying separates the hosts");
    }

    #[test]
    fn host_rotation_is_visible() {
        let hosts = vec![Ipv4Addr::new(203, 0, 100, 1), Ipv4Addr::new(203, 0, 101, 1)];
        let bot = AdaptiveBot::distributed_retry(hosts.clone());
        assert_eq!(bot.hosts, hosts);
        assert_eq!(bot.name, "distributed-retry");
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_botnet_rejected() {
        let _ = AdaptiveBot::distributed_retry(vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_subnet_botnet_rejected() {
        let _ = AdaptiveBot::subnet_botnet(Ipv4Addr::new(10, 0, 0, 1), 500);
    }

    #[test]
    fn synthetic_recipients_helper() {
        let rcpts = synthetic_recipients("foo.net", 3);
        assert_eq!(rcpts.len(), 3);
        assert!(rcpts.iter().all(|r| r.domain() == "foo.net"));
    }
}

//! A running bot sample: executes campaigns against a mail world.

use crate::behavior::RetryBehavior;
use crate::campaign::Campaign;
use crate::family::MalwareFamily;
use spamward_dns::DomainName;
use spamward_mta::{MailWorld, MxStrategy, WorldSim};
use spamward_sim::{Actor, DetRng, SimDuration, SimTime, Wake};
use spamward_smtp::{Dialect, EmailAddress, Envelope, Message, ReversePath};
use std::net::Ipv4Addr;

/// One delivery attempt a bot made (the raw series behind Figs. 3 and 4).
#[derive(Debug, Clone)]
pub struct BotAttempt {
    /// The victim of this attempt.
    pub recipient: EmailAddress,
    /// 1-based attempt number for this victim.
    pub attempt: u32,
    /// When the attempt happened.
    pub at: SimTime,
    /// Delay since the bot's *first* attempt for this victim.
    pub since_first: SimDuration,
    /// Whether the message was accepted.
    pub delivered: bool,
}

/// The outcome of running one sample against one campaign.
#[derive(Debug, Clone, Default)]
pub struct BotRunReport {
    /// Every attempt, in chronological order.
    pub attempts: Vec<BotAttempt>,
    /// Victims that received the message.
    pub delivered: Vec<EmailAddress>,
    /// Victims the bot gave up on.
    pub failed: Vec<EmailAddress>,
    /// Connection attempts per MX preference rank: entry `k` counts how
    /// often the bot tried the victim's rank-`k` exchanger (0 = primary).
    /// The shape of this vector *is* the family's [`MxStrategy`]
    /// (`spamward_mta::MxStrategy`) as observed from the victim side —
    /// nolisting works exactly when entry 0 is the only non-zero entry.
    pub mx_rank_attempts: Vec<u64>,
}

impl BotRunReport {
    /// Fraction of victims reached.
    pub fn delivery_rate(&self) -> f64 {
        let total = self.delivered.len() + self.failed.len();
        if total == 0 {
            return 0.0;
        }
        self.delivered.len() as f64 / total as f64
    }

    /// Whether *any* spam got through — the paper's Table II criterion
    /// (a ✓ means the defense blocked everything).
    pub fn any_delivered(&self) -> bool {
        !self.delivered.is_empty()
    }
}

/// One recipient's delivery chain as a self-rescheduling engine actor:
/// every wake-up is one SMTP attempt, and the family's retry ladder
/// ([`RetryBehavior`]) schedules the next wake-up. Shared by
/// [`BotSample`] and [`crate::AdaptiveBot`], which differ only in how
/// they rotate source hosts.
pub(crate) struct ChainActor {
    pub(crate) name: &'static str,
    pub(crate) hosts: Vec<Ipv4Addr>,
    pub(crate) host_cursor: usize,
    pub(crate) dialect: Dialect,
    pub(crate) strategy: MxStrategy,
    pub(crate) behavior: RetryBehavior,
    pub(crate) sender: ReversePath,
    pub(crate) message: Message,
    pub(crate) rcpt: EmailAddress,
    pub(crate) domain: DomainName,
    pub(crate) rng: DetRng,
    pub(crate) record_mx_ranks: bool,
    pub(crate) first_at: SimTime,
    pub(crate) attempt_no: u32,
    pub(crate) attempts: Vec<BotAttempt>,
    pub(crate) mx_rank_attempts: Vec<u64>,
    pub(crate) delivered: bool,
}

impl Actor<MailWorld> for ChainActor {
    fn name(&self) -> &str {
        self.name
    }

    fn wake(&mut self, now: SimTime, world: &mut MailWorld) -> Wake {
        self.attempt_no += 1;
        let source_ip = self.hosts[self.host_cursor % self.hosts.len()];
        self.host_cursor += 1;
        let envelope = Envelope::builder()
            .client_ip(source_ip)
            .helo(&self.dialect.helo_argument(source_ip))
            .mail_from(self.sender.clone())
            .rcpt(self.rcpt.clone())
            .build();
        let attempt = world.attempt_delivery(
            now,
            &self.dialect,
            self.strategy,
            &self.domain,
            envelope,
            self.message.clone(),
        );
        if self.record_mx_ranks {
            for mx in &attempt.mx_trail {
                let rank = mx.preference_rank;
                if self.mx_rank_attempts.len() <= rank {
                    self.mx_rank_attempts.resize(rank + 1, 0);
                }
                self.mx_rank_attempts[rank] += 1;
            }
        }
        let delivered = attempt.outcome.is_delivered();
        self.attempts.push(BotAttempt {
            recipient: self.rcpt.clone(),
            attempt: self.attempt_no,
            at: now,
            since_first: now.elapsed_since(self.first_at),
            delivered,
        });
        if delivered {
            self.delivered = true;
            return Wake::Idle;
        }
        match self.behavior.nth_retry_delay(self.attempt_no, &mut self.rng) {
            Some(delay) => Wake::At(self.first_at + delay),
            None => Wake::Idle,
        }
    }
}

/// One executable malware sample.
///
/// Samples of the same family share behaviour (the paper found no
/// intra-family variation); the per-sample seed only jitters retry timing.
///
/// # Example
///
/// ```
/// use spamward_botnet::{BotSample, MalwareFamily};
/// use std::net::Ipv4Addr;
///
/// let bot = BotSample::new(MalwareFamily::Kelihos, 0, Ipv4Addr::new(203, 0, 113, 77));
/// assert_eq!(bot.family(), MalwareFamily::Kelihos);
/// ```
#[derive(Debug, Clone)]
pub struct BotSample {
    family: MalwareFamily,
    sample_idx: u32,
    ip: Ipv4Addr,
    rng: DetRng,
}

impl BotSample {
    /// Creates sample `sample_idx` of `family`, sending from `ip`.
    pub fn new(family: MalwareFamily, sample_idx: u32, ip: Ipv4Addr) -> Self {
        let rng =
            DetRng::seed(0x0B07).fork(family.name()).fork_idx("sample", u64::from(sample_idx));
        BotSample { family, sample_idx, ip, rng }
    }

    /// The sample's family.
    pub fn family(&self) -> MalwareFamily {
        self.family
    }

    /// The sample's index within its family (0-based).
    pub fn sample_idx(&self) -> u32 {
        self.sample_idx
    }

    /// The infected machine's address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Runs the whole campaign to completion against `world`, starting at
    /// `start` and giving up at `horizon` (the paper ran samples for 30
    /// minutes; Fig. 4 needed ~25 hours).
    ///
    /// Each victim is attempted independently — one SMTP transaction per
    /// recipient, the fire-and-forget pattern — as its own engine episode
    /// ([`WorldSim::episode`]): the chain is a `ChainActor` whose retry
    /// ladder self-reschedules until delivery, give-up, or the horizon.
    pub fn run_campaign(
        &mut self,
        world: &mut MailWorld,
        campaign: &Campaign,
        start: SimTime,
        horizon: SimTime,
    ) -> BotRunReport {
        let mut report = BotRunReport::default();
        let strategy = self.family.mx_strategy();
        let dialect = self.family.dialect();
        let behavior = self.family.retry_behavior();

        for rcpt in &campaign.recipients {
            let domain: DomainName = match rcpt.domain().parse() {
                Ok(d) => d,
                Err(_) => {
                    report.failed.push(rcpt.clone());
                    continue;
                }
            };
            let chain = ChainActor {
                name: crate::metrics::ACTOR_BOTNET_CHAIN,
                hosts: vec![self.ip],
                host_cursor: 0,
                dialect: dialect.clone(),
                strategy,
                behavior: behavior.clone(),
                sender: campaign.sender.clone(),
                message: campaign.message.clone(),
                rcpt: rcpt.clone(),
                domain,
                rng: self.rng.fork_idx("msg", report.attempts.len() as u64),
                record_mx_ranks: true,
                first_at: start,
                attempt_no: 0,
                attempts: Vec::new(),
                mx_rank_attempts: Vec::new(),
                delivered: false,
            };
            let (chain, _outcome, _end) = WorldSim::episode(world, chain, start, Some(horizon));
            for (rank, n) in chain.mx_rank_attempts.iter().enumerate() {
                if report.mx_rank_attempts.len() <= rank {
                    report.mx_rank_attempts.resize(rank + 1, 0);
                }
                report.mx_rank_attempts[rank] += n;
            }
            report.attempts.extend(chain.attempts);
            if chain.delivered {
                report.delivered.push(rcpt.clone());
            } else {
                report.failed.push(rcpt.clone());
            }
        }
        report
    }

    /// Builds the full sample roster of Table I: 3 Cutwail, 6 Kelihos,
    /// 1 Darkmailer, 1 Darkmailer v3 — eleven bots, each on its own
    /// infected host address drawn from `pool_base`.
    pub fn table_i_roster(pool_base: Ipv4Addr) -> Vec<BotSample> {
        let mut pool = spamward_net::IpPool::new(pool_base);
        let mut out = Vec::new();
        for family in MalwareFamily::ALL {
            for idx in 0..family.sample_count() {
                out.push(BotSample::new(family, idx, pool.next_ip()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_dns::Zone;
    use spamward_greylist::{Greylist, GreylistConfig};
    use spamward_mta::ReceivingMta;
    use spamward_net::{PortState, SMTP_PORT};

    const VICTIM_DOMAIN: &str = "victim.example";

    fn plain_world() -> (MailWorld, Ipv4Addr) {
        let mut w = MailWorld::new(33);
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        w.install_server(ReceivingMta::new("mail.victim.example", mx));
        w.dns.publish(Zone::single_mx(VICTIM_DOMAIN.parse().unwrap(), mx));
        (w, mx)
    }

    fn nolisting_world() -> (MailWorld, Ipv4Addr) {
        let mut w = MailWorld::new(34);
        let dead = Ipv4Addr::new(192, 0, 2, 20);
        let live = Ipv4Addr::new(192, 0, 2, 21);
        w.network.host("smtp.victim.example").ip(dead).port(SMTP_PORT, PortState::Closed).build();
        w.install_server(ReceivingMta::new("smtp1.victim.example", live));
        w.dns.publish(Zone::nolisting(VICTIM_DOMAIN.parse().unwrap(), dead, live));
        (w, live)
    }

    fn greylist_world(delay_secs: u64) -> (MailWorld, Ipv4Addr) {
        let mut w = MailWorld::new(35);
        let mx = Ipv4Addr::new(192, 0, 2, 30);
        w.install_server(
            ReceivingMta::new("mail.victim.example", mx).with_greylist(Greylist::new(
                GreylistConfig::with_delay(SimDuration::from_secs(delay_secs))
                    .without_auto_whitelist(),
            )),
        );
        w.dns.publish(Zone::single_mx(VICTIM_DOMAIN.parse().unwrap(), mx));
        (w, mx)
    }

    fn campaign(n: usize) -> Campaign {
        let mut rng = DetRng::seed(77).fork("test-campaign");
        Campaign::synthetic(VICTIM_DOMAIN, n, &mut rng)
    }

    fn run(family: MalwareFamily, world: &mut MailWorld, horizon_secs: u64) -> BotRunReport {
        let mut bot = BotSample::new(family, 0, Ipv4Addr::new(203, 0, 113, 50));
        bot.run_campaign(world, &campaign(5), SimTime::ZERO, SimTime::from_secs(horizon_secs))
    }

    #[test]
    fn all_families_deliver_against_unprotected_server() {
        for family in MalwareFamily::ALL {
            let (mut w, mx) = plain_world();
            let report = run(family, &mut w, 1_800);
            assert_eq!(report.delivery_rate(), 1.0, "{family} blocked by nothing?");
            assert_eq!(w.server(mx).unwrap().mailbox().len(), 5);
        }
    }

    #[test]
    fn nolisting_blocks_kelihos_only() {
        // Table II, nolisting column.
        for family in MalwareFamily::ALL {
            let (mut w, _) = nolisting_world();
            let report = run(family, &mut w, 200_000);
            let expected_blocked = family == MalwareFamily::Kelihos;
            assert_eq!(
                !report.any_delivered(),
                expected_blocked,
                "{family}: nolisting expected blocked={expected_blocked}"
            );
        }
    }

    #[test]
    fn greylisting_blocks_all_but_kelihos() {
        // Table II, greylisting column (300 s threshold, 25 h horizon).
        for family in MalwareFamily::ALL {
            let (mut w, _) = greylist_world(300);
            let report = run(family, &mut w, 90_000);
            let expected_blocked = family != MalwareFamily::Kelihos;
            assert_eq!(
                !report.any_delivered(),
                expected_blocked,
                "{family}: greylisting expected blocked={expected_blocked}"
            );
        }
    }

    #[test]
    fn kelihos_delivers_on_first_retry_at_300s_threshold() {
        let (mut w, _) = greylist_world(300);
        let report = run(MalwareFamily::Kelihos, &mut w, 90_000);
        assert!(report.any_delivered());
        for rcpt_attempts in report
            .delivered
            .iter()
            .map(|r| report.attempts.iter().filter(|a| &a.recipient == r).collect::<Vec<_>>())
        {
            assert_eq!(rcpt_attempts.len(), 2, "greylisted once, then delivered on retry 1");
            let final_delay = rcpt_attempts.last().unwrap().since_first;
            assert!(final_delay >= SimDuration::from_secs(300));
            assert!(final_delay < SimDuration::from_secs(600));
        }
    }

    #[test]
    fn kelihos_needs_third_retry_at_21600s_threshold() {
        // Fig. 4: only the 80–90 ks peak clears a six-hour threshold.
        let (mut w, _) = greylist_world(21_600);
        let report = run(MalwareFamily::Kelihos, &mut w, 100_000);
        assert!(report.any_delivered(), "Kelihos eventually clears 6 h greylisting");
        let delivered_attempts: Vec<_> = report.attempts.iter().filter(|a| a.delivered).collect();
        for a in &delivered_attempts {
            assert_eq!(a.attempt, 4, "initial + 3 retries");
            assert!(a.since_first >= SimDuration::from_secs(80_000));
            assert!(a.since_first < SimDuration::from_secs(90_000));
        }
        // Failed attempts cluster in the documented peaks (blue dots).
        let failed: Vec<SimDuration> = report
            .attempts
            .iter()
            .filter(|a| !a.delivered && a.attempt > 1)
            .map(|a| a.since_first)
            .collect();
        assert!(failed
            .iter()
            .all(|d| (*d >= SimDuration::from_secs(300) && *d < SimDuration::from_secs(600))
                || (*d >= SimDuration::from_secs(4_500) && *d < SimDuration::from_secs(5_500))));
    }

    #[test]
    fn kelihos_gives_up_within_30_minute_run() {
        // The paper's standard 30-minute observation window is too short
        // for Kelihos to pass a 6 h greylist — the long-run experiment
        // exists precisely because of this.
        let (mut w, _) = greylist_world(21_600);
        let report = run(MalwareFamily::Kelihos, &mut w, 1_800);
        assert!(!report.any_delivered());
        // Only the first-attempt + possibly the 300–600 s retry fit.
        assert!(report.attempts.iter().all(|a| a.attempt <= 2));
    }

    #[test]
    fn cutwail_attempts_once_per_victim() {
        let (mut w, _) = greylist_world(300);
        let report = run(MalwareFamily::Cutwail, &mut w, 90_000);
        assert_eq!(report.attempts.len(), 5, "fire-and-forget: one attempt per victim");
        assert!(report.attempts.iter().all(|a| a.attempt == 1));
        assert_eq!(report.delivery_rate(), 0.0);
    }

    #[test]
    fn roster_matches_table_i() {
        let roster = BotSample::table_i_roster(Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(roster.len(), 11);
        let kelihos = roster.iter().filter(|b| b.family() == MalwareFamily::Kelihos).count();
        assert_eq!(kelihos, 6);
        // All on distinct IPs.
        let mut ips: Vec<Ipv4Addr> = roster.iter().map(|b| b.ip()).collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 11);
    }

    #[test]
    fn campaign_records_engine_stats_per_chain() {
        let (mut w, _) = greylist_world(300);
        let report = run(MalwareFamily::Kelihos, &mut w, 90_000);
        assert!(report.any_delivered());
        // One episode per recipient chain, each delivering on retry 1.
        assert_eq!(w.engine_stats.actor_events["botnet.chain"], vec![2u64; 5]);
        assert_eq!(w.engine_stats.events, 10);
        assert_eq!(w.engine_stats.outcomes.drained, 5);
    }

    #[test]
    fn samples_of_same_family_share_behaviour() {
        // Same outcome class for every Kelihos sample (jitter differs).
        for idx in 0..3 {
            let (mut w, _) = greylist_world(300);
            let mut bot =
                BotSample::new(MalwareFamily::Kelihos, idx, Ipv4Addr::new(203, 0, 113, 60));
            let report =
                bot.run_campaign(&mut w, &campaign(2), SimTime::ZERO, SimTime::from_secs(90_000));
            assert!(report.any_delivered(), "sample {idx} must behave like its family");
        }
    }
}

//! The sending MTA: queue, retry schedule, IP-pool selection.

use crate::metrics::{ACTOR_MTA_SEND, SAMPLE_BREAKER_TRIPS};
use crate::schedule::MtaProfile;
use crate::world::{MailWorld, MxStrategy};
use crate::worldsim::WorldSim;
use spamward_dns::DomainName;
use spamward_sim::{Actor, DetRng, SimDuration, SimTime, Wake};
use spamward_smtp::{Dialect, EmailAddress, Envelope, Message, ReversePath};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Why a non-delivery report was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BounceReason {
    /// The message out-lived the queue (RFC 5321 §4.5.4.1 give-up).
    Expired,
    /// The receiver rejected it permanently.
    Rejected,
}

impl fmt::Display for BounceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BounceReason::Expired => write!(f, "message expired in queue"),
            BounceReason::Rejected => write!(f, "rejected by remote server"),
        }
    }
}

/// A non-delivery report (DSN) owed to the original sender.
///
/// Bounces carry the *null reverse path* `<>` so that they can never
/// themselves bounce (the mail-loop protection of RFC 5321 §4.5.5) — which
/// also means greylisting services see plenty of `<>` senders, a case the
/// triplet key handles explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BounceReport {
    /// Queue id of the failed message.
    pub original_id: u64,
    /// When the bounce was generated.
    pub generated_at: SimTime,
    /// Why.
    pub reason: BounceReason,
    /// The original sender, who receives the report.
    pub recipient: EmailAddress,
    /// The ready-to-send DSN message.
    pub message: Message,
}

/// How an outbound pool picks the source address per attempt.
///
/// Greylisting keys on the client address, so a pool that hops addresses
/// between retries keeps resetting its own greylist clock — exactly the
/// pathology the paper observed for five of the ten webmail providers
/// (Table III, "same IP" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpSelection {
    /// Always the first pool address.
    Fixed,
    /// Rotate deterministically through the pool.
    RoundRobin,
    /// Pick uniformly at random per attempt.
    RandomPerAttempt,
}

/// Resilience knobs layered *on top of* an [`MtaProfile`]'s retry
/// schedule (Table IV stays authoritative for the baseline cadence).
///
/// Two mechanisms, both per-destination and both deterministic:
///
/// * **Bounded exponential backoff** — when an attempt fails at the
///   *connection* level (every candidate MX unreachable), the next retry
///   is pushed to at least `now + base·2^(attempt−1)` (capped at
///   `backoff_cap`) plus a jittered fraction of that backoff. The jitter
///   is a pure function of (sender seed, message id, attempt number), so
///   identical runs produce identical queues.
/// * **Circuit breaker** — after `breaker_threshold` *consecutive*
///   connection failures to one destination domain, the breaker opens and
///   attempts to that domain are skipped (not counted as attempts) until
///   `breaker_cooldown` elapses. Greylist tempfails and SMTP-level aborts
///   never trip it: the TCP handshake succeeded, so the destination is
///   alive and backing off would only delay legitimate mail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First-failure backoff floor.
    pub backoff_base: SimDuration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: SimDuration,
    /// Jitter as a fraction of the computed backoff (0.0 disables it).
    pub jitter_frac: f64,
    /// Consecutive connection failures that open the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker holds attempts off.
    pub breaker_cooldown: SimDuration,
}

impl RetryPolicy {
    /// The reference resilient configuration used by the `resilience`
    /// experiment: 30 s base doubling to a 10 min cap with 25 % jitter,
    /// breaker opening after 3 consecutive connect failures for 5 min.
    pub fn resilient() -> Self {
        RetryPolicy {
            backoff_base: SimDuration::from_secs(30),
            backoff_cap: SimDuration::from_mins(10),
            jitter_frac: 0.25,
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_mins(5),
        }
    }
}

/// Per-destination breaker state (keyed by destination domain).
#[derive(Debug, Clone, Copy, Default)]
struct Breaker {
    consecutive_failures: u32,
    open_until: Option<SimTime>,
}

/// Lifecycle of a queued message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutboundStatus {
    /// Still scheduled for (re)delivery.
    Queued,
    /// Delivered to at least one recipient.
    Delivered,
    /// Permanently rejected by the receiver.
    Rejected,
    /// Exceeded the queue lifetime (or the schedule gave up) and bounced.
    Expired,
}

/// One message in the outbound queue.
#[derive(Debug, Clone)]
pub struct QueuedMessage {
    /// Queue-local id.
    pub id: u64,
    /// Destination domain (MX lookup target).
    pub domain: DomainName,
    /// Envelope sender.
    pub mail_from: ReversePath,
    /// Recipients still owed delivery.
    pub recipients: Vec<EmailAddress>,
    /// Message content.
    pub message: Message,
    /// When the message entered the queue.
    pub enqueued_at: SimTime,
    /// Next scheduled attempt.
    pub next_attempt_at: SimTime,
    /// Completed attempts so far.
    pub attempts: u32,
    /// Current status.
    pub status: OutboundStatus,
}

/// One delivery attempt as recorded by the sender (the raw material of
/// Table III).
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Which queued message.
    pub message_id: u64,
    /// 1-based attempt number.
    pub attempt: u32,
    /// When the attempt ran.
    pub at: SimTime,
    /// Delay since the message was queued.
    pub since_enqueue: SimDuration,
    /// Source address used.
    pub source_ip: Ipv4Addr,
    /// Whether the attempt delivered the message.
    pub delivered: bool,
}

/// A queue-and-retry sending MTA (or webmail outbound tier).
///
/// Drive it from a simulation: [`SendingMta::submit`] enqueues,
/// [`SendingMta::next_due`] tells the experiment when to wake up, and
/// [`SendingMta::run_due`] executes every attempt that is due.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_dns::Zone;
/// use spamward_mta::{MailWorld, MtaProfile, ReceivingMta, SendingMta};
/// use spamward_sim::SimTime;
/// use spamward_smtp::{Message, ReversePath};
///
/// let mut world = MailWorld::new(7);
/// let mx = Ipv4Addr::new(192, 0, 2, 10);
/// world.install_server(ReceivingMta::new("mail.foo.net", mx));
/// world.dns.publish(Zone::single_mx("foo.net".parse()?, mx));
///
/// let mut sender = SendingMta::new("relay.example", vec![Ipv4Addr::new(198, 51, 100, 1)], MtaProfile::postfix());
/// sender.submit(
///     "foo.net".parse()?,
///     ReversePath::Address("a@relay.example".parse()?),
///     vec!["u@foo.net".parse()?],
///     Message::builder().body("hi").build(),
///     SimTime::ZERO,
/// );
/// let records = sender.run_due(SimTime::ZERO, &mut world);
/// assert!(records[0].delivered);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SendingMta {
    fqdn: String,
    ip_pool: Vec<Ipv4Addr>,
    ip_selection: IpSelection,
    profile: MtaProfile,
    dialect: Dialect,
    queue: Vec<QueuedMessage>,
    records: Vec<AttemptRecord>,
    bounces: Vec<BounceReport>,
    next_id: u64,
    rr_cursor: usize,
    retry_policy: Option<RetryPolicy>,
    breakers: BTreeMap<String, Breaker>,
    breaker_trips: u64,
    /// Breaker trips already recorded as a time-series point.
    breaker_trips_sampled: u64,
    breaker_skipped: u64,
    backoffs_applied: u64,
    rng: DetRng,
}

impl SendingMta {
    /// Creates a sender with the given outbound pool and retry profile.
    ///
    /// # Panics
    ///
    /// Panics if `ip_pool` is empty.
    pub fn new(fqdn: &str, ip_pool: Vec<Ipv4Addr>, profile: MtaProfile) -> Self {
        assert!(!ip_pool.is_empty(), "sending MTA needs at least one source IP");
        SendingMta {
            fqdn: fqdn.to_owned(),
            dialect: Dialect::compliant_mta(fqdn),
            ip_pool,
            ip_selection: IpSelection::Fixed,
            profile,
            queue: Vec::new(),
            records: Vec::new(),
            bounces: Vec::new(),
            next_id: 0,
            rr_cursor: 0,
            retry_policy: None,
            breakers: BTreeMap::new(),
            breaker_trips: 0,
            breaker_trips_sampled: 0,
            breaker_skipped: 0,
            backoffs_applied: 0,
            rng: DetRng::seed(0xB0B).fork("sending-mta"),
        }
    }

    /// Sets the source-address strategy.
    pub fn with_ip_selection(mut self, selection: IpSelection) -> Self {
        self.ip_selection = selection;
        self
    }

    /// Reseeds the internal RNG (for deterministic experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = DetRng::seed(seed).fork("sending-mta");
        self
    }

    /// Layers a [`RetryPolicy`] (backoff + circuit breaker) on the
    /// profile's schedule. Without one, behavior is byte-identical to the
    /// baseline sender.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self
    }

    /// The resilience policy, if one was installed.
    pub fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.retry_policy.as_ref()
    }

    /// How many times a per-destination breaker opened.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips
    }

    /// Attempts skipped because the destination's breaker was open.
    pub fn breaker_skipped(&self) -> u64 {
        self.breaker_skipped
    }

    /// Retries whose schedule slot was pushed back by exponential backoff.
    pub fn backoffs_applied(&self) -> u64 {
        self.backoffs_applied
    }

    /// The sender's name.
    pub fn fqdn(&self) -> &str {
        &self.fqdn
    }

    /// The retry profile in use.
    pub fn profile(&self) -> &MtaProfile {
        &self.profile
    }

    /// Every attempt made so far.
    pub fn records(&self) -> &[AttemptRecord] {
        &self.records
    }

    /// The queue contents (all statuses).
    pub fn queue(&self) -> &[QueuedMessage] {
        &self.queue
    }

    /// Non-delivery reports generated so far (expired/rejected messages
    /// whose sender was not the null path).
    pub fn bounces(&self) -> &[BounceReport] {
        &self.bounces
    }

    fn generate_bounce(&mut self, idx: usize, now: SimTime, reason: BounceReason) {
        let item = &self.queue[idx];
        // Never bounce a bounce: null-path mail dies silently.
        let ReversePath::Address(ref original_sender) = item.mail_from else {
            return;
        };
        let rcpts: Vec<String> = item.recipients.iter().map(|r| r.to_string()).collect();
        let message = Message::builder()
            .header("From", &format!("MAILER-DAEMON@{}", self.fqdn))
            .header("To", &original_sender.to_string())
            .header("Subject", "Undelivered Mail Returned to Sender")
            .header("Auto-Submitted", "auto-replied")
            .body(&format!(
                "This is the mail system at host {}.\n\n\
                 I'm sorry to have to inform you that your message could not\n\
                 be delivered to one or more recipients.\n\n\
                 <{}>: {}\n\n\
                 Attempts: {}\n",
                self.fqdn,
                rcpts.join(">, <"),
                reason,
                item.attempts,
            ))
            .build();
        self.bounces.push(BounceReport {
            original_id: item.id,
            generated_at: now,
            reason,
            recipient: original_sender.clone(),
            message,
        });
    }

    /// Enqueues a message for delivery "now"; returns its id.
    pub fn submit(
        &mut self,
        domain: DomainName,
        mail_from: ReversePath,
        recipients: Vec<EmailAddress>,
        message: Message,
        now: SimTime,
    ) -> u64 {
        assert!(!recipients.is_empty(), "a message needs at least one recipient");
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push(QueuedMessage {
            id,
            domain,
            mail_from,
            recipients,
            message,
            enqueued_at: now,
            next_attempt_at: now,
            attempts: 0,
            status: OutboundStatus::Queued,
        });
        id
    }

    /// The earliest pending attempt, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue
            .iter()
            .filter(|m| m.status == OutboundStatus::Queued)
            .map(|m| m.next_attempt_at)
            .min()
    }

    fn pick_source(&mut self) -> Ipv4Addr {
        match self.ip_selection {
            IpSelection::Fixed => self.ip_pool[0],
            IpSelection::RoundRobin => {
                let ip = self.ip_pool[self.rr_cursor % self.ip_pool.len()];
                self.rr_cursor += 1;
                ip
            }
            IpSelection::RandomPerAttempt => *self.rng.pick(&self.ip_pool),
        }
    }

    /// Runs every attempt due at or before `now`; returns the attempt
    /// records produced in this call.
    pub fn run_due(&mut self, now: SimTime, world: &mut MailWorld) -> Vec<AttemptRecord> {
        let mut produced = Vec::new();
        for idx in 0..self.queue.len() {
            if self.queue[idx].status != OutboundStatus::Queued
                || self.queue[idx].next_attempt_at > now
            {
                continue;
            }

            // An open breaker holds the attempt entirely: no connection, no
            // attempt count, no schedule consumption — the message simply
            // waits for the cooldown to lapse.
            if self.retry_policy.is_some() {
                let key = self.queue[idx].domain.to_string();
                if let Some(breaker) = self.breakers.get_mut(&key) {
                    match breaker.open_until {
                        Some(open_until) if now < open_until => {
                            self.queue[idx].next_attempt_at = open_until;
                            self.breaker_skipped += 1;
                            continue;
                        }
                        // Cooldown elapsed: half-open, let one attempt probe.
                        Some(_) => breaker.open_until = None,
                        None => {}
                    }
                }
            }

            let source_ip = self.pick_source();
            let item = &mut self.queue[idx];
            item.attempts += 1;
            let attempt_no = item.attempts;

            let envelope = Envelope::builder()
                .client_ip(source_ip)
                .helo(&self.fqdn)
                .mail_from(item.mail_from.clone())
                .rcpts(item.recipients.iter().cloned())
                .build();
            let domain = item.domain.clone();
            let message = item.message.clone();
            let report = world.attempt_delivery(
                now,
                &self.dialect,
                MxStrategy::RfcCompliant,
                &domain,
                envelope,
                message,
            );

            let delivered = report.outcome.is_delivered();
            let conn_failed = report.connection_failed();
            if let Some(policy) = self.retry_policy {
                let key = domain.to_string();
                if conn_failed {
                    let breaker = self.breakers.entry(key).or_default();
                    breaker.consecutive_failures += 1;
                    if breaker.consecutive_failures >= policy.breaker_threshold {
                        breaker.open_until = Some(now + policy.breaker_cooldown);
                        breaker.consecutive_failures = 0;
                        self.breaker_trips += 1;
                    }
                } else {
                    // Any completed SMTP exchange (even a greylist 450)
                    // proves the destination reachable again.
                    self.breakers.remove(&key);
                }
            }

            let item = &mut self.queue[idx];
            produced.push(AttemptRecord {
                message_id: item.id,
                attempt: attempt_no,
                at: now,
                since_enqueue: now.elapsed_since(item.enqueued_at),
                source_ip,
                delivered,
            });

            if delivered {
                // Per-recipient requeue: keep only still-deferred rcpts.
                let pending = report.outcome.pending_recipients().to_vec();
                if pending.is_empty() {
                    item.status = OutboundStatus::Delivered;
                    continue;
                }
                item.recipients = pending;
            } else if !report.outcome.is_retryable() {
                item.status = OutboundStatus::Rejected;
                self.generate_bounce(idx, now, BounceReason::Rejected);
                continue;
            }

            // Schedule the next retry, or expire.
            match self.profile.schedule.nth_retry_at(attempt_no) {
                Some(offset) if offset <= self.profile.max_queue_time => {
                    let mut next = self.queue[idx].enqueued_at + offset;
                    if conn_failed {
                        if let Some(policy) = self.retry_policy {
                            // Bounded exponential backoff, floored at `now`:
                            // base·2^(n−1) capped, plus deterministic jitter
                            // keyed on (sender seed, message id, attempt).
                            let exp = (attempt_no - 1).min(16);
                            let backoff =
                                (policy.backoff_base * (1u64 << exp)).min(policy.backoff_cap);
                            let mut jitter_rng = self
                                .rng
                                .fork("retry.jitter")
                                .fork_idx("msg", self.queue[idx].id)
                                .fork_idx("attempt", u64::from(attempt_no));
                            let jitter = backoff * (policy.jitter_frac * jitter_rng.unit_f64());
                            let floor = now + backoff + jitter;
                            if floor > next {
                                next = floor;
                                self.backoffs_applied += 1;
                            }
                        }
                    }
                    self.queue[idx].next_attempt_at = next;
                }
                _ => {
                    self.queue[idx].status = OutboundStatus::Expired;
                    self.generate_bounce(idx, now, BounceReason::Expired);
                }
            }
        }
        self.records.extend(produced.iter().cloned());
        produced
    }

    /// Drives the queue to completion against `world` as one engine
    /// episode ([`WorldSim::episode`]): the MTA's retry schedule is a
    /// self-rescheduling timer, alongside the world's own timers (an
    /// installed fault plan's window edges included). Returns the time of
    /// the last attempt this call made (or `start` when it made none).
    pub fn drain(&mut self, start: SimTime, world: &mut MailWorld) -> SimTime {
        let Some(due) = self.next_due() else { return start };
        let made = self.records.len();
        WorldSim::episode(world, self, due.max(start), None);
        self.records[made..].last().map_or(start, |record| record.at)
    }
}

/// The sending-MTA process: each wake-up runs every due delivery attempt,
/// then sleeps until the queue's next retry — the MTA's retransmission
/// schedule as a self-rescheduling timer.
impl Actor<MailWorld> for SendingMta {
    fn name(&self) -> &str {
        ACTOR_MTA_SEND
    }

    fn wake(&mut self, now: SimTime, world: &mut MailWorld) -> Wake {
        self.run_due(now, world);
        // Breaker state lives in the sending MTA, out of the world
        // sampler's reach — so a sampling world gets trip *increments*
        // recorded here, at the virtual instant the wake-up tripped them.
        if world.sample_interval().is_some() && self.retry_policy.is_some() {
            let delta = self.breaker_trips - self.breaker_trips_sampled;
            if delta > 0 {
                world.samples.record_point(
                    SAMPLE_BREAKER_TRIPS,
                    now,
                    i64::try_from(delta).unwrap_or(i64::MAX),
                );
            }
            self.breaker_trips_sampled = self.breaker_trips;
        }
        self.next_due().map_or(Wake::Idle, Wake::At)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receive::{ReceivingMta, RecipientPolicy};
    use spamward_dns::Zone;
    use spamward_greylist::{Greylist, GreylistConfig};

    fn domain() -> DomainName {
        "foo.net".parse().unwrap()
    }

    fn world_with_greylist(delay_secs: u64) -> (MailWorld, Ipv4Addr) {
        let mut w = MailWorld::new(9);
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        w.install_server(ReceivingMta::new("mail.foo.net", mx).with_greylist(Greylist::new(
            GreylistConfig::with_delay(SimDuration::from_secs(delay_secs)).without_auto_whitelist(),
        )));
        w.dns.publish(Zone::single_mx(domain(), mx));
        (w, mx)
    }

    fn sender(profile: MtaProfile) -> SendingMta {
        SendingMta::new("relay.example", vec![Ipv4Addr::new(198, 51, 100, 1)], profile)
    }

    fn submit_one(s: &mut SendingMta, now: SimTime) -> u64 {
        s.submit(
            domain(),
            ReversePath::Address("a@relay.example".parse().unwrap()),
            vec!["u@foo.net".parse().unwrap()],
            Message::builder().header("Subject", "x").body("b").build(),
            now,
        )
    }

    #[test]
    fn delivers_through_greylist_via_schedule() {
        let (mut w, mx) = world_with_greylist(300);
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        let end = s.drain(SimTime::ZERO, &mut w);
        // postfix first retry at 5 min = exactly the 300 s delay.
        assert_eq!(s.queue()[0].status, OutboundStatus::Delivered);
        assert_eq!(s.records().len(), 2, "initial attempt + one retry");
        assert!(s.records()[1].delivered);
        assert_eq!(s.records()[1].since_enqueue, SimDuration::from_mins(5));
        assert_eq!(w.server(mx).unwrap().mailbox().len(), 1);
        assert_eq!(end, SimTime::ZERO + SimDuration::from_mins(5));
    }

    #[test]
    fn drain_returns_the_last_attempt_not_the_last_fault_edge() {
        use spamward_net::{FaultPlan, FaultProfile};

        let mut w = MailWorld::new(9);
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        w.install_server(ReceivingMta::new("mail.foo.net", mx));
        w.dns.publish(Zone::single_mx(domain(), mx));
        // A crash window on a host the world does not serve: its edges at
        // 7 200 s and 7 260 s run in the episode but touch no delivery.
        let crash = FaultProfile::crash_restart(
            "elsewhere.example",
            SimTime::from_secs(7_200),
            SimDuration::from_secs(60),
        );
        w.install_faults(&FaultPlan::compile(&crash, 7));
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        let end = s.drain(SimTime::ZERO, &mut w);
        assert_eq!(w.server(mx).unwrap().mailbox().len(), 1);
        assert_eq!(w.fault_boundaries(), 2);
        assert_eq!(end, SimTime::ZERO, "delivered on the first attempt");
    }

    #[test]
    fn sendmail_needs_one_retry_at_10min() {
        let (mut w, _) = world_with_greylist(300);
        let mut s = sender(MtaProfile::sendmail());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.records().len(), 2);
        assert_eq!(s.records()[1].since_enqueue, SimDuration::from_mins(10));
    }

    #[test]
    fn six_hour_greylist_takes_many_retries() {
        let (mut w, _) = world_with_greylist(21_600);
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.queue()[0].status, OutboundStatus::Delivered);
        let last = s.records().last().unwrap();
        assert!(last.delivered);
        assert!(last.since_enqueue >= SimDuration::from_hours(6));
        assert!(s.records().len() > 10, "a 6 h greylist forces many postfix retries");
    }

    #[test]
    fn exchange_two_day_queue_expires_against_impossible_greylist() {
        // A greylist longer than exchange's queue life can never be passed.
        let (mut w, mx) = world_with_greylist(3 * 86_400);
        let mut s = sender(MtaProfile::exchange());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.queue()[0].status, OutboundStatus::Expired);
        assert_eq!(w.server(mx).unwrap().mailbox().len(), 0);
        let last = s.records().last().unwrap();
        assert!(last.since_enqueue <= SimDuration::from_days(2));
    }

    #[test]
    fn permanent_rejection_stops_retrying() {
        let mut w = MailWorld::new(11);
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        w.install_server(
            ReceivingMta::new("mail.foo.net", mx)
                .with_recipients(RecipientPolicy::List(Default::default())),
        );
        w.dns.publish(Zone::single_mx(domain(), mx));
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.queue()[0].status, OutboundStatus::Rejected);
        assert_eq!(s.records().len(), 1, "5xx must not be retried");
    }

    #[test]
    fn round_robin_pool_rotates_and_random_stays_in_pool() {
        let pool: Vec<Ipv4Addr> = (1..=3).map(|d| Ipv4Addr::new(198, 51, 100, d)).collect();
        let mut s = SendingMta::new("relay.example", pool.clone(), MtaProfile::postfix())
            .with_ip_selection(IpSelection::RoundRobin);
        let picks: Vec<Ipv4Addr> = (0..6).map(|_| s.pick_source()).collect();
        assert_eq!(&picks[..3], &pool[..]);
        assert_eq!(&picks[3..], &pool[..]);

        let mut s = SendingMta::new("relay.example", pool.clone(), MtaProfile::postfix())
            .with_ip_selection(IpSelection::RandomPerAttempt)
            .with_seed(5);
        for _ in 0..32 {
            assert!(pool.contains(&s.pick_source()));
        }
    }

    #[test]
    fn hopping_ips_delays_delivery() {
        // Two addresses in *different* /24s: each address starts its own
        // greylist clock, so delivery needs an extra round trip through the
        // pool — the paper's "this behavior increases the delivery time"
        // observation (§V-C). Round-robin reuses the first address on
        // attempt 3, whose clock started at t0.
        let (mut w, mx) = world_with_greylist(300);
        let pool = vec![Ipv4Addr::new(198, 51, 100, 1), Ipv4Addr::new(203, 0, 113, 1)];
        let mut s = SendingMta::new("relay.example", pool, MtaProfile::exchange())
            .with_ip_selection(IpSelection::RoundRobin);
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.queue()[0].status, OutboundStatus::Delivered);
        assert_eq!(s.records().len(), 3, "IP hopping costs an extra attempt");
        assert_eq!(s.records().last().unwrap().since_enqueue, SimDuration::from_mins(30));
        assert_eq!(w.server(mx).unwrap().mailbox().len(), 1);
    }

    #[test]
    fn same_subnet_pool_passes_greylist() {
        // Two addresses in the *same* /24: Postgrey's netmask keying saves
        // the day (why small pools still deliver in Table III).
        let (mut w, mx) = world_with_greylist(300);
        let pool = vec![Ipv4Addr::new(198, 51, 100, 1), Ipv4Addr::new(198, 51, 100, 2)];
        let mut s = SendingMta::new("relay.example", pool, MtaProfile::postfix())
            .with_ip_selection(IpSelection::RoundRobin);
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.queue()[0].status, OutboundStatus::Delivered);
        assert_eq!(w.server(mx).unwrap().mailbox().len(), 1);
    }

    #[test]
    fn expired_message_generates_bounce_to_sender() {
        let (mut w, _) = world_with_greylist(3 * 86_400);
        let mut s = sender(MtaProfile::exchange());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.queue()[0].status, OutboundStatus::Expired);
        let bounces = s.bounces();
        assert_eq!(bounces.len(), 1);
        let b = &bounces[0];
        assert_eq!(b.reason, BounceReason::Expired);
        assert_eq!(b.recipient.to_string(), "a@relay.example");
        assert_eq!(b.message.header("Subject"), Some("Undelivered Mail Returned to Sender"));
        assert!(b.message.body().contains("u@foo.net"));
    }

    #[test]
    fn rejected_message_generates_bounce() {
        let mut w = MailWorld::new(17);
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        w.install_server(
            ReceivingMta::new("mail.foo.net", mx)
                .with_recipients(RecipientPolicy::List(Default::default())),
        );
        w.dns.publish(Zone::single_mx(domain(), mx));
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.bounces().len(), 1);
        assert_eq!(s.bounces()[0].reason, BounceReason::Rejected);
    }

    #[test]
    fn null_sender_failures_never_bounce() {
        // Mail-loop protection: a failed DSN dies silently.
        let (mut w, _) = world_with_greylist(3 * 86_400);
        let mut s = sender(MtaProfile::exchange());
        s.submit(
            domain(),
            ReversePath::Null,
            vec!["u@foo.net".parse().unwrap()],
            Message::builder().body("dsn").build(),
            SimTime::ZERO,
        );
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.queue()[0].status, OutboundStatus::Expired);
        assert!(s.bounces().is_empty(), "null-path mail must not bounce");
    }

    #[test]
    fn delivered_messages_do_not_bounce() {
        let (mut w, _) = world_with_greylist(300);
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert!(s.bounces().is_empty());
    }

    #[test]
    fn next_due_reflects_queue() {
        let mut s = sender(MtaProfile::postfix());
        assert_eq!(s.next_due(), None);
        submit_one(&mut s, SimTime::from_secs(50));
        assert_eq!(s.next_due(), Some(SimTime::from_secs(50)));
    }

    #[test]
    #[should_panic(expected = "at least one source IP")]
    fn empty_pool_panics() {
        let _ = SendingMta::new("x", vec![], MtaProfile::postfix());
    }

    /// A world whose MX resolves to an address nothing listens on: every
    /// attempt dies at the connection stage.
    fn dead_destination_world(seed: u64) -> MailWorld {
        let mut w = MailWorld::new(seed);
        w.dns.publish(Zone::single_mx(domain(), Ipv4Addr::new(192, 0, 2, 10)));
        w
    }

    #[test]
    fn breaker_opens_skips_and_half_open_probes() {
        let mut w = dead_destination_world(23);
        let policy = RetryPolicy {
            backoff_base: SimDuration::from_secs(1),
            backoff_cap: SimDuration::from_secs(1),
            jitter_frac: 0.0,
            breaker_threshold: 2,
            breaker_cooldown: SimDuration::from_hours(2),
        };
        let mut s = sender(MtaProfile::postfix()).with_retry_policy(policy);
        submit_one(&mut s, SimTime::ZERO);
        assert_eq!(s.run_due(SimTime::ZERO, &mut w).len(), 1);
        let t1 = s.next_due().unwrap();
        s.run_due(t1, &mut w); // second consecutive connect failure
        assert_eq!(s.breaker_trips(), 1);

        let t2 = s.next_due().unwrap();
        let skipped = s.run_due(t2, &mut w);
        assert!(skipped.is_empty(), "open breaker must hold the attempt");
        assert_eq!(s.breaker_skipped(), 1);
        assert_eq!(s.records().len(), 2, "a skip is not an attempt");

        let t3 = s.next_due().unwrap();
        assert_eq!(t3, t1 + SimDuration::from_hours(2), "skip reschedules to cooldown end");
        let probe = s.run_due(t3, &mut w);
        assert_eq!(probe.len(), 1, "half-open breaker lets one probe through");
        assert_eq!(s.breaker_trips(), 1, "one probe failure does not instantly re-trip");
    }

    #[test]
    fn connection_failures_apply_bounded_backoff() {
        let mut w = dead_destination_world(25);
        let policy = RetryPolicy {
            backoff_base: SimDuration::from_mins(30),
            backoff_cap: SimDuration::from_hours(2),
            jitter_frac: 0.0,
            breaker_threshold: 100,
            breaker_cooldown: SimDuration::from_mins(5),
        };
        let mut s = sender(MtaProfile::postfix()).with_retry_policy(policy);
        submit_one(&mut s, SimTime::ZERO);
        s.run_due(SimTime::ZERO, &mut w);
        assert_eq!(s.backoffs_applied(), 1);
        assert_eq!(s.next_due(), Some(SimTime::ZERO + SimDuration::from_mins(30)));
        // Second failure doubles the floor relative to its own "now".
        let t1 = SimTime::ZERO + SimDuration::from_mins(30);
        s.run_due(t1, &mut w);
        assert_eq!(s.backoffs_applied(), 2);
        assert_eq!(s.next_due(), Some(t1 + SimDuration::from_hours(1)));
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            backoff_base: SimDuration::from_mins(30),
            backoff_cap: SimDuration::from_hours(2),
            jitter_frac: 0.5,
            breaker_threshold: 100,
            breaker_cooldown: SimDuration::from_mins(5),
        };
        let run = || {
            let mut w = dead_destination_world(27);
            let mut s = sender(MtaProfile::postfix()).with_retry_policy(policy).with_seed(9);
            submit_one(&mut s, SimTime::ZERO);
            s.run_due(SimTime::ZERO, &mut w);
            s.next_due().unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "jitter must be a pure function of seed, id and attempt");
        assert!(a >= SimTime::ZERO + SimDuration::from_mins(30));
        assert!(a <= SimTime::ZERO + SimDuration::from_mins(45), "jitter stays within frac");
    }

    #[test]
    fn greylist_tempfail_never_trips_the_breaker() {
        let (mut w, mx) = world_with_greylist(300);
        let policy = RetryPolicy { breaker_threshold: 1, ..RetryPolicy::resilient() };
        let mut s = sender(MtaProfile::postfix()).with_retry_policy(policy);
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(s.queue()[0].status, OutboundStatus::Delivered);
        assert_eq!(s.breaker_trips(), 0, "a completed SMTP exchange proves the host alive");
        assert_eq!(s.backoffs_applied(), 0, "greylist deferrals keep the Table IV cadence");
        assert_eq!(s.records().len(), 2);
        assert_eq!(w.server(mx).unwrap().mailbox().len(), 1);
    }

    /// A greylisting MX whose MTA crashes 300 ms in and restarts 60 s
    /// later, with the RTT pinned so the crash instant lands inside the
    /// first session's span (6 round trips = 600 ms).
    fn crash_world(mut w: MailWorld) -> (MailWorld, Ipv4Addr) {
        use spamward_net::{FaultPlan, FaultProfile, LatencyModel, Network};

        w.network =
            Network::new(9).with_latency(LatencyModel::Constant(SimDuration::from_millis(100)));
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        w.install_server(ReceivingMta::new("mail.foo.net", mx).with_greylist(Greylist::new(
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist(),
        )));
        w.dns.publish(Zone::single_mx(domain(), mx));
        let plan = FaultPlan::compile(
            &FaultProfile::crash_restart(
                "mail.foo.net",
                SimTime::ZERO + SimDuration::from_millis(300),
                SimDuration::from_secs(60),
            ),
            9,
        );
        w.install_faults(&plan);
        (w, mx)
    }

    #[test]
    fn mid_session_crash_drop_treated_like_drop_after_data() {
        let (mut w, mx) = crash_world(MailWorld::new(9));
        let policy = RetryPolicy { breaker_threshold: 1, ..RetryPolicy::resilient() };
        let mut s = sender(MtaProfile::postfix()).with_retry_policy(policy);
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);

        // The first session was cut mid-DATA by the crash: a transient
        // failure whose MX trail shows an *established* connection —
        // exactly the shape of an injected DropAfterData — so even a
        // hair-trigger breaker must not trip, and the Table IV retry
        // cadence stays untouched.
        assert_eq!(s.breaker_trips(), 0, "mid-session drop is not a connect failure");
        assert_eq!(s.backoffs_applied(), 0, "retry cadence stays on the paper schedule");
        assert_eq!(s.queue()[0].status, OutboundStatus::Delivered);
        // No double-delivery: the cut session stored nothing, and the
        // greylisted retry path delivered exactly one copy.
        assert_eq!(w.server(mx).unwrap().mailbox().len(), 1);
        let crash = w.server(mx).unwrap().crash_stats();
        assert_eq!(crash.sessions_dropped, 1);
        assert_eq!((crash.crashes, crash.restarts), (1, 1));
        // t0 (cut mid-DATA), 300 s (greylisted first contact), 600 s (pass).
        assert_eq!(s.records().len(), 3);
    }

    #[test]
    fn crash_lifecycle_renders_pinned_trace_and_timeline() {
        let (mut w, _) = crash_world(MailWorld::new(9).with_tracing());
        let policy = RetryPolicy { breaker_threshold: 1, ..RetryPolicy::resilient() };
        let mut s = sender(MtaProfile::postfix()).with_retry_policy(policy);
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);

        // Cut by the crash at 300 ms, the MTA back at 60.3 s, the retry
        // deferred at 300 s and passed at 600 s.
        let lines: Vec<String> = w.events.lines().collect();
        assert_eq!(
            lines,
            [
                "[t+0us] dns.mx: foo.net: 1 exchanger(s)",
                "[t+0us] net.fault: mail.foo.net (192.0.2.10): session dropped by crash at t+300000us",
                "[t+300000us] net.fault: fault window boundary",
                "[t+300000us] net.fault: mail.foo.net: crashed; 0 greylist entries in memory",
                "[t+1m00s] net.fault: fault window boundary",
                "[t+1m00s] net.fault: mail.foo.net: restarted; restored 0 from checkpoint, replayed 0 wal records (0 torn), lost 0",
                "[t+5m00s] dns.mx: foo.net: 1 exchanger(s)",
                "[t+5m00s] smtp.outcome: [198.51.100.1] <a@relay.example> -> u@foo.net via mail.foo.net: deferred with 450 at rcpt-to",
                "[t+10m00s] dns.mx: foo.net: 1 exchanger(s)",
                "[t+10m00s] smtp.outcome: [198.51.100.1] <a@relay.example> -> u@foo.net via mail.foo.net: delivered to 1 rcpt(s) (0 deferred, 0 rejected)",
            ]
        );
        assert_eq!(
            w.events.timeline("").to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"[198.51.100.1] <a@relay.example> -> u@foo.net\"}},\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"mail.foo.net\"}},\
            {\"name\":\"timeline.connect\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"mail.foo.net (192.0.2.10)\"}},\
            {\"name\":\"timeline.dns\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"foo.net: 1 exchanger(s)\"}},\
            {\"name\":\"timeline.emit\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"first attempt\"}},\
            {\"name\":\"timeline.mta.crash\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"session dropped by crash at t+300000us\"}},\
            {\"name\":\"timeline.mta.crash\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":300000,\"pid\":1,\"tid\":2,\"s\":\"t\",\"args\":{\"detail\":\"crashed; 0 greylist entries in memory\"}},\
            {\"name\":\"timeline.mta.restart\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":60300000,\"pid\":1,\"tid\":2,\"s\":\"t\",\"args\":{\"detail\":\"restarted; restored 0 from checkpoint, replayed 0 wal records (0 torn), lost 0\"}},\
            {\"name\":\"timeline.connect\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":300000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"mail.foo.net (192.0.2.10)\"}},\
            {\"name\":\"timeline.dns\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":300000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"foo.net: 1 exchanger(s)\"}},\
            {\"name\":\"timeline.greylist.defer\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":300000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"deferred with 450 at rcpt-to\"}},\
            {\"name\":\"timeline.retry\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":300000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"attempt 2\"}},\
            {\"name\":\"timeline.connect\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"mail.foo.net (192.0.2.10)\"}},\
            {\"name\":\"timeline.deliver\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"delivered to 1 rcpt(s) (0 deferred, 0 rejected)\"}},\
            {\"name\":\"timeline.dns\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"foo.net: 1 exchanger(s)\"}},\
            {\"name\":\"timeline.greylist.pass\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"accepted after defer\"}},\
            {\"name\":\"timeline.retry\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"attempt 3\"}}]}"
        );
    }

    #[test]
    fn without_a_policy_counters_stay_zero() {
        let (mut w, _) = world_with_greylist(300);
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert!(s.retry_policy().is_none());
        assert_eq!(s.breaker_trips() + s.breaker_skipped() + s.backoffs_applied(), 0);
    }

    #[test]
    fn drain_records_engine_stats_on_world() {
        let (mut w, _) = world_with_greylist(300);
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(w.engine_stats.outcomes.drained, 1);
        assert_eq!(w.engine_stats.actor_events["mta.send"], vec![2], "two wake-ups: t0 + retry");
        assert_eq!(w.engine_stats.events, 2);
        assert!(w.engine_stats.queue_high_water >= 1);
    }

    #[test]
    fn cumulative_event_budget_truncates_drain() {
        let (mut w, _) = world_with_greylist(21_600);
        w.event_budget = Some(3);
        let mut s = sender(MtaProfile::postfix());
        submit_one(&mut s, SimTime::ZERO);
        s.drain(SimTime::ZERO, &mut w);
        assert_eq!(w.engine_stats.events, 3);
        assert_eq!(w.engine_stats.outcomes.budget_exhausted, 1);
        // A subsequent episode has nothing left and is cut immediately.
        let mut s2 = sender(MtaProfile::postfix());
        submit_one(&mut s2, SimTime::ZERO);
        let end = s2.drain(SimTime::ZERO, &mut w);
        assert_eq!(end, SimTime::ZERO);
        assert!(s2.records().is_empty());
        assert_eq!(w.engine_stats.outcomes.budget_exhausted, 2);
    }
}

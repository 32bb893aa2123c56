//! Metric names, trace categories and collectors for the MTA crate.
//!
//! All `mta.*` registry names and the delivery-path trace categories live
//! here (the O1 lint rule). Hot paths bump plain counter fields
//! ([`ReceiveStats`](crate::ReceiveStats), the SMTP
//! [`SessionMetrics`](spamward_smtp::metrics::SessionMetrics) absorbed per
//! session); sender-side metrics are derived from the already-recorded
//! attempt/bounce history at collect time, so the queue path pays nothing.

use crate::receive::ReceivingMta;
use crate::send::{OutboundStatus, SendingMta};
use crate::world::MailWorld;
use spamward_obs::{Histogram, Registry};

/// Trace category: MX resolution failed outright.
pub const TRACE_DNS_FAIL: &str = "dns.fail";
/// Trace category: MX set resolved.
pub const TRACE_DNS_MX: &str = "dns.mx";
/// Trace category: TCP connect to an exchanger failed.
pub const TRACE_NET_FAIL: &str = "net.fail";
/// Trace category: final SMTP outcome of a delivery attempt.
pub const TRACE_SMTP_OUTCOME: &str = "smtp.outcome";
/// Trace category: an injected fault fired (or a fault window boundary
/// passed through the engine).
pub const TRACE_FAULT: &str = "net.fault";

/// Completed transactions (messages stored).
pub const RECV_ACCEPTED: &str = "mta.receive.accepted";
/// RCPTs refused for unknown users.
pub const RECV_RCPT_UNKNOWN: &str = "mta.receive.rcpt_unknown";
/// RCPTs deferred by greylisting.
pub const RECV_RCPT_GREYLISTED: &str = "mta.receive.rcpt_greylisted";
/// RCPTs that passed greylisting (any reason).
pub const RECV_RCPT_PASSED: &str = "mta.receive.rcpt_passed";
/// Sessions rejected for talking before the banner.
pub const RECV_PREGREET_REJECTED: &str = "mta.receive.pregreet_rejected";
/// Messages sitting in the mailbox at collection time.
pub const RECV_MAILBOX_SIZE: &str = "mta.receive.mailbox_size";
/// Anonymized log entries written.
pub const RECV_LOG_ENTRIES: &str = "mta.receive.log_entries";

/// Messages submitted to an outbound queue.
pub const SEND_SUBMITTED: &str = "mta.send.submitted";
/// Delivery attempts executed.
pub const SEND_ATTEMPTS: &str = "mta.send.attempts";
/// Messages delivered.
pub const SEND_DELIVERED: &str = "mta.send.delivered";
/// Messages bounced after exhausting the retry schedule (give-ups).
pub const SEND_GAVE_UP: &str = "mta.send.gave_up";
/// Messages still queued (undelivered, unbounced) at collection time.
pub const SEND_QUEUE_DEPTH: &str = "mta.send.queue_depth";
/// Distribution of attempts over the retry schedule: which (1-based)
/// attempt slot each executed attempt fell into.
pub const SEND_RETRY_SCHEDULE_SLOT: &str = "mta.send.retry.schedule_slot";
/// Distribution of delivery delays (seconds from enqueue to delivery).
pub const SEND_DELIVERY_DELAY_S: &str = "mta.send.delivery_delay_s";
/// Events the world's event record dropped to its capacity bound.
pub const WORLD_TRACE_DROPPED: &str = "mta.world.trace_dropped";

/// Sessions an injected fault dropped after DATA.
pub const FAULT_SMTP_DROP_AFTER_DATA: &str = "net.fault.smtp.drop_after_data";
/// Sessions an injected fault greeted with 421 and closed.
pub const FAULT_SMTP_SHUTDOWN_421: &str = "net.fault.smtp.shutdown_421";
/// Sessions an injected fault held in a tarpit.
pub const FAULT_SMTP_TARPIT: &str = "net.fault.smtp.tarpit";
/// Fault window boundaries that fired as engine events.
pub const FAULT_BOUNDARY_EVENTS: &str = "net.fault.boundary_events";

/// Circuit-breaker trips (a destination went open after consecutive
/// connect failures).
pub const BREAKER_TRIPS: &str = "mta.breaker.trips";
/// Delivery attempts skipped because the destination's breaker was open.
pub const BREAKER_SKIPPED: &str = "mta.breaker.skipped_attempts";
/// Retries pushed later than the paper schedule by resilient backoff.
pub const BREAKER_BACKOFFS: &str = "mta.breaker.backoffs_applied";

/// RCPTs accepted unchecked while the greylist store was down (fail-open).
pub const GREYLIST_DEGRADED_FAIL_OPEN: &str = "greylist.degraded.fail_open";
/// RCPTs tempfailed while the greylist store was down (fail-closed).
pub const GREYLIST_DEGRADED_FAIL_CLOSED: &str = "greylist.degraded.fail_closed";

/// Crash instants that fired (a receiving MTA process died).
pub const CRASH_EVENTS: &str = "mta.crash.events";
/// Restart instants that fired (a crashed MTA came back up).
pub const CRASH_RESTARTS: &str = "mta.crash.restarts";
/// Connection attempts refused while a receiving MTA was down.
pub const CRASH_REFUSED_CONNECTIONS: &str = "mta.crash.refused_connections";
/// In-flight SMTP sessions cut mid-dialogue by a crash instant.
pub const CRASH_SESSIONS_DROPPED: &str = "mta.crash.sessions_dropped";

/// Durability checkpoints taken (periodic ticks plus each restart's
/// re-baselining checkpoint).
pub const RECOVERY_CHECKPOINTS: &str = "greylist.recovery.checkpoints";
/// Triplet entries restored from the last checkpoint across restarts.
pub const RECOVERY_ENTRIES_RESTORED: &str = "greylist.recovery.entries_restored";
/// WAL records replayed over the checkpoint across restarts.
pub const RECOVERY_WAL_REPLAYED: &str = "greylist.recovery.wal_records_replayed";
/// Torn final WAL records skipped deterministically during replay.
pub const RECOVERY_WAL_TORN_SKIPPED: &str = "greylist.recovery.wal_torn_skipped";
/// Triplet entries in memory at crash time that recovery did not get back.
pub const RECOVERY_ENTRIES_LOST: &str = "greylist.recovery.entries_lost";

/// Engine events executed across every episode driven on this world.
pub const ENGINE_EVENTS: &str = "sim.engine.events";
/// High-water mark of the engine's pending-event queue (summed across
/// worlds at collection time, like the other world gauges).
pub const ENGINE_QUEUE_HIGH_WATER: &str = "sim.engine.queue_high_water";
/// Per-actor-category episode-length histograms: `sim.engine.episode_events.`
/// followed by the actor name (`mta.send`, `botnet.chain`, …), each sample
/// being the events one episode of that actor executed.
pub const ENGINE_EPISODE_EVENTS_PREFIX: &str = "sim.engine.episode_events.";
/// Actor name of the sending MTA on the engine — the suffix its episode
/// histogram gets under [`ENGINE_EPISODE_EVENTS_PREFIX`].
pub const ACTOR_MTA_SEND: &str = "mta.send";
/// Episodes that drained their event queue.
pub const ENGINE_OUTCOME_DRAINED: &str = "sim.engine.outcome.drained";
/// Episodes stopped at their horizon.
pub const ENGINE_OUTCOME_HORIZON: &str = "sim.engine.outcome.horizon_reached";
/// Episodes cut short by an event budget — nonzero means truncated runs.
pub const ENGINE_OUTCOME_BUDGET_EXHAUSTED: &str = "sim.engine.outcome.budget_exhausted";
/// Episodes stopped early from inside an event: always zero, since the
/// engine has no such stop.
pub const ENGINE_OUTCOME_STOPPED: &str = "sim.engine.outcome.stopped";
/// Per-shard engine event counts of sharded runs: `sim.engine.shard.`
/// followed by the shard index and `.events`. Sharded experiments record
/// every shard of their fixed partition, so the name set — and therefore
/// the canonical output — does not depend on executor width.
pub const ENGINE_SHARD_PREFIX: &str = "sim.engine.shard.";

/// Actor name of the telemetry sampler on the engine — its ticks are real
/// engine events accounted under this category.
pub const ACTOR_OBS_SAMPLE: &str = "obs.sample";
/// Sampled series: summed `rcpt_greylisted` across a world's servers.
pub const SAMPLE_GREYLIST_DEFERRED: &str = "obs.sample.greylist.deferred";
/// Sampled series: summed `rcpt_passed` across a world's servers.
pub const SAMPLE_GREYLIST_PASSED: &str = "obs.sample.greylist.passed";
/// Sampled series: summed accepted-message count across a world's servers.
pub const SAMPLE_RECV_ACCEPTED: &str = "obs.sample.recv.accepted";
/// Sampled series: summed mailbox depth across a world's servers.
pub const SAMPLE_RECV_MAILBOX: &str = "obs.sample.recv.mailbox_size";
/// Sampled series: engine events of completed episodes on the world.
pub const SAMPLE_ENGINE_EVENTS: &str = "obs.sample.engine.events";
/// Sampled series: engine queue high-water of completed episodes.
pub const SAMPLE_ENGINE_QUEUE_HIGH_WATER: &str = "obs.sample.engine.queue_high_water";
/// Sampled series: cumulative circuit-breaker trips of a sending MTA.
pub const SAMPLE_BREAKER_TRIPS: &str = "obs.sample.breaker.trips";

/// Actor name of the greylist-store maintenance sweeper on the engine —
/// its ticks are real engine events accounted under this category.
pub const ACTOR_STORE_MAINTAIN: &str = "greylist.maintain";
/// Actor name of the durability checkpointer on the engine — its ticks
/// are real engine events accounted under this category.
pub const ACTOR_CHECKPOINT: &str = "greylist.checkpoint";
/// Sampled series: summed live greylist-store entries across a world's
/// servers, recorded on each maintenance sweep.
pub const SAMPLE_STORE_SIZE: &str = "obs.sample.greylist.store_size";
/// Sampled series: summed approximate greylist-store bytes across a
/// world's servers, recorded on each maintenance sweep.
pub const SAMPLE_STORE_BYTES: &str = "obs.sample.greylist.store_bytes";

/// Timeline event: first delivery attempt of a message (campaign emit).
pub const TL_EMIT: &str = "timeline.emit";
/// Timeline event: a later delivery attempt of the same message.
pub const TL_RETRY: &str = "timeline.retry";
/// Timeline event: MX resolution result (or failure) for an attempt.
pub const TL_DNS: &str = "timeline.dns";
/// Timeline event: TCP connection established to an exchanger.
pub const TL_CONNECT: &str = "timeline.connect";
/// Timeline event: the session ended in a tempfail — the greylist (or
/// equivalent session-level) defer decision.
pub const TL_GREYLIST_DEFER: &str = "timeline.greylist.defer";
/// Timeline event: a message that was previously deferred got accepted.
pub const TL_GREYLIST_PASS: &str = "timeline.greylist.pass";
/// Timeline event: message stored by the receiving server.
pub const TL_DELIVER: &str = "timeline.deliver";
/// Timeline event: message permanently rejected.
pub const TL_REJECT: &str = "timeline.reject";
/// Timeline event: a receiving MTA crashed (on its hostname track), or an
/// in-flight session was cut by a crash (on the message's track).
pub const TL_MTA_CRASH: &str = "timeline.mta.crash";
/// Timeline event: a crashed MTA restarted and recovered its greylist
/// state per its durability mode (on its hostname track).
pub const TL_MTA_RESTART: &str = "timeline.mta.restart";

/// Retry-slot histogram bounds: attempt numbers along a typical schedule.
pub const RETRY_SLOT_BOUNDS: [u64; 7] = [1, 2, 3, 5, 8, 13, 21];
/// Delivery-delay histogram bounds (seconds): 1 min … 1 day.
pub const DELIVERY_DELAY_BOUNDS_S: [u64; 7] = [60, 300, 600, 1800, 3600, 14_400, 86_400];
/// Episode-length histogram bounds (events per episode).
pub const EPISODE_EVENT_BOUNDS: [u64; 7] = [1, 2, 3, 5, 8, 13, 21];

/// Exports one receiving MTA: receive counters, absorbed SMTP session
/// counters, and the greylist snapshot when one is installed.
pub fn collect_receiver(mta: &ReceivingMta, reg: &mut Registry) {
    let stats = mta.stats();
    reg.record_counter(RECV_ACCEPTED, stats.messages_accepted);
    reg.record_counter(RECV_RCPT_UNKNOWN, stats.rcpt_unknown);
    reg.record_counter(RECV_RCPT_GREYLISTED, stats.rcpt_greylisted);
    reg.record_counter(RECV_RCPT_PASSED, stats.rcpt_passed);
    reg.record_counter(RECV_PREGREET_REJECTED, stats.pregreet_rejected);
    reg.record_gauge(RECV_MAILBOX_SIZE, mta.mailbox().len() as i64);
    reg.record_counter(RECV_LOG_ENTRIES, mta.log().len() as u64);
    spamward_smtp::metrics::collect(mta.smtp_metrics(), reg);
    if let Some(gl) = mta.greylist() {
        spamward_greylist::metrics::collect(gl, reg);
    }
    // Degradation counters only exist once the greylist has outage windows,
    // so fault-free runs keep their exact metric composition.
    if mta.greylist().is_some_and(|gl| !gl.outages().is_empty()) {
        reg.record_counter(GREYLIST_DEGRADED_FAIL_OPEN, stats.greylist_failed_open);
        reg.record_counter(GREYLIST_DEGRADED_FAIL_CLOSED, stats.greylist_failed_closed);
    }
    // Same rule for the crash lifecycle: the counters exist only once a
    // crash schedule is installed, so crash-free runs export byte-identical
    // metric sets.
    if mta.has_crash_schedule() {
        let crash = mta.crash_stats();
        reg.record_counter(CRASH_EVENTS, crash.crashes);
        reg.record_counter(CRASH_RESTARTS, crash.restarts);
        reg.record_counter(CRASH_REFUSED_CONNECTIONS, crash.refused_connections);
        reg.record_counter(CRASH_SESSIONS_DROPPED, crash.sessions_dropped);
        reg.record_counter(RECOVERY_CHECKPOINTS, crash.checkpoints);
        reg.record_counter(RECOVERY_ENTRIES_RESTORED, crash.entries_restored);
        reg.record_counter(RECOVERY_WAL_REPLAYED, crash.wal_records_replayed);
        reg.record_counter(RECOVERY_WAL_TORN_SKIPPED, crash.wal_torn_skipped);
        reg.record_counter(RECOVERY_ENTRIES_LOST, crash.entries_lost);
    }
}

/// Exports one sending MTA, deriving everything from its recorded
/// attempt/bounce/queue state: the one-sender case of [`SenderTotals`].
pub fn collect_sender(mta: &SendingMta, reg: &mut Registry) {
    let mut totals = SenderTotals::default();
    totals.add(mta);
    totals.export(reg);
}

/// The sender metrics of any number of sending MTAs, summed as each one is
/// added and exported once: the registry [`SenderTotals::export`] leaves
/// is the one a [`collect_sender`] call per added sender leaves. A replay
/// that drops each sender after its drain folds it in here first, so the
/// histograms are built once per total, not once per sender.
#[derive(Debug, Clone)]
pub struct SenderTotals {
    senders: u64,
    submitted: u64,
    attempts: u64,
    delivered: u64,
    gave_up: u64,
    queued: i64,
    slots: Histogram,
    delays: Histogram,
    /// Breaker trips, skipped attempts and backoffs of the senders that
    /// run a [`RetryPolicy`](crate::RetryPolicy); `None` until one is added.
    breaker: Option<[u64; 3]>,
}

impl Default for SenderTotals {
    /// Totals of no sender: exports nothing.
    fn default() -> Self {
        SenderTotals {
            senders: 0,
            submitted: 0,
            attempts: 0,
            delivered: 0,
            gave_up: 0,
            queued: 0,
            slots: Histogram::new(&RETRY_SLOT_BOUNDS),
            delays: Histogram::new(&DELIVERY_DELAY_BOUNDS_S),
            breaker: None,
        }
    }
}

impl SenderTotals {
    /// Adds one sender's attempts, deliveries, bounces and queue.
    pub fn add(&mut self, mta: &SendingMta) {
        self.senders += 1;
        for r in mta.records() {
            self.slots.observe(u64::from(r.attempt));
            if r.delivered {
                self.delivered += 1;
                self.delays.observe(r.since_enqueue.as_micros() / 1_000_000);
            }
        }
        let queue = mta.queue();
        self.submitted += queue.len() as u64;
        self.queued += queue.iter().filter(|q| q.status == OutboundStatus::Queued).count() as i64;
        self.attempts += mta.records().len() as u64;
        self.gave_up += mta.bounces().len() as u64;
        // Breaker accounting exists only for MTAs running a resilience policy.
        if mta.retry_policy().is_some() {
            let [trips, skipped, backoffs] = self.breaker.get_or_insert([0; 3]);
            *trips += mta.breaker_trips();
            *skipped += mta.breaker_skipped();
            *backoffs += mta.backoffs_applied();
        }
    }

    /// Records the totals into `reg`, handing it their histograms;
    /// nothing when no sender was added.
    pub fn export(self, reg: &mut Registry) {
        if self.senders == 0 {
            return;
        }
        reg.record_counter(SEND_SUBMITTED, self.submitted);
        reg.record_counter(SEND_ATTEMPTS, self.attempts);
        reg.record_counter(SEND_DELIVERED, self.delivered);
        reg.record_counter(SEND_GAVE_UP, self.gave_up);
        reg.record_gauge(SEND_QUEUE_DEPTH, self.queued);
        reg.record_histogram(SEND_RETRY_SCHEDULE_SLOT, self.slots);
        reg.record_histogram(SEND_DELIVERY_DELAY_S, self.delays);
        if let Some([trips, skipped, backoffs]) = self.breaker {
            reg.record_counter(BREAKER_TRIPS, trips);
            reg.record_counter(BREAKER_SKIPPED, skipped);
            reg.record_counter(BREAKER_BACKOFFS, backoffs);
        }
    }
}

/// Exports a whole [`MailWorld`]: every installed server, the network, the
/// DNS authority and resolver, and event-record overflow.
pub fn collect_world(world: &MailWorld, reg: &mut Registry) {
    for server in world.servers() {
        collect_receiver(server, reg);
    }
    spamward_net::metrics::collect(&world.network, reg);
    spamward_dns::metrics::collect_authority(&world.dns, reg);
    spamward_dns::metrics::collect_resolver(&world.resolver.stats(), reg);
    if let Some(faults) = world.resolver.faults() {
        spamward_dns::metrics::collect_resolver_faults(&faults.stats, reg);
    }
    if let Some(faults) = world.smtp_faults() {
        reg.record_counter(FAULT_SMTP_DROP_AFTER_DATA, faults.stats.dropped_after_data);
        reg.record_counter(FAULT_SMTP_SHUTDOWN_421, faults.stats.shutdown_421);
        reg.record_counter(FAULT_SMTP_TARPIT, faults.stats.tarpitted);
        reg.record_counter(FAULT_BOUNDARY_EVENTS, world.fault_boundaries());
    }
    reg.record_counter(WORLD_TRACE_DROPPED, world.events.dropped());
    collect_engine(world, reg);
}

/// Exports the accumulated [`EngineStats`](spamward_sim::EngineStats) of a
/// world: how much discrete-event work its episodes did and how they
/// ended. Skipped entirely for worlds never driven through the engine, so
/// undriven worlds export no spurious zeros.
fn collect_engine(world: &MailWorld, reg: &mut Registry) {
    let stats = &world.engine_stats;
    if stats.is_empty() {
        return;
    }
    reg.record_counter(ENGINE_EVENTS, stats.events);
    reg.record_gauge(ENGINE_QUEUE_HIGH_WATER, stats.queue_high_water as i64);
    for (actor, episodes) in &stats.actor_events {
        let mut h = Histogram::new(&EPISODE_EVENT_BOUNDS);
        for &events in episodes {
            h.observe(events);
        }
        reg.record_histogram(format!("{ENGINE_EPISODE_EVENTS_PREFIX}{actor}"), h);
    }
    reg.record_counter(ENGINE_OUTCOME_DRAINED, stats.outcomes.drained);
    reg.record_counter(ENGINE_OUTCOME_HORIZON, stats.outcomes.horizon_reached);
    reg.record_counter(ENGINE_OUTCOME_BUDGET_EXHAUSTED, stats.outcomes.budget_exhausted);
    // Always 0, as the engine has no early stop: repro-all.json pins the name.
    reg.record_counter(ENGINE_OUTCOME_STOPPED, 0);
}

/// Exports one shard's engine event count under its
/// [`ENGINE_SHARD_PREFIX`] name. Sharded experiments call this once per
/// shard of their fixed partition, in shard order.
pub fn collect_shard_events(shard: u32, events: u64, reg: &mut Registry) {
    reg.record_counter(format!("{ENGINE_SHARD_PREFIX}{shard}.events"), events);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::MtaProfile;
    use spamward_dns::Zone;
    use spamward_greylist::{Greylist, GreylistConfig};
    use spamward_sim::{SimDuration, SimTime};
    use spamward_smtp::{Message, ReversePath};
    use std::net::Ipv4Addr;

    #[test]
    fn shard_event_collection_names_each_shard() {
        let mut reg = Registry::new();
        collect_shard_events(0, 12, &mut reg);
        collect_shard_events(3, 0, &mut reg);
        assert_eq!(reg.counter("sim.engine.shard.0.events"), Some(12));
        assert_eq!(reg.counter("sim.engine.shard.3.events"), Some(0));
    }

    /// Drained senders of every kind the totals fold: delivered after a
    /// greylist retry, given up with a bounce, and (with a retry policy)
    /// tripping a breaker on an unreachable exchanger.
    fn drained_senders() -> Vec<SendingMta> {
        let victim_ip = Ipv4Addr::new(192, 0, 2, 10);
        let mut world = MailWorld::new(11);
        world.install_server(ReceivingMta::new("mx.victim.example", victim_ip).with_greylist(
            Greylist::new(
                GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist(),
            ),
        ));
        world.dns.publish(Zone::single_mx("victim.example".parse().unwrap(), victim_ip));
        // An exchanger with no server behind it: every connect fails.
        world.dns.publish(Zone::single_mx(
            "dead.example".parse().unwrap(),
            Ipv4Addr::new(192, 0, 2, 99),
        ));
        let one_shot = MtaProfile {
            name: "one-shot".into(),
            schedule: crate::RetrySchedule::Explicit { times: [].into(), tail_interval: None },
            max_queue_time: SimDuration::from_days(1),
        };
        let plans = [
            ("victim.example", MtaProfile::postfix(), false),
            ("victim.example", one_shot, false),
            ("dead.example", MtaProfile::exchange(), true),
            ("victim.example", MtaProfile::qmail(), true),
            ("dead.example", MtaProfile::sendmail(), false),
        ];
        plans
            .into_iter()
            .enumerate()
            .map(|(i, (domain, profile, policy))| {
                let ip = Ipv4Addr::new(198, 51, 100, i as u8 + 1);
                let mut sender = SendingMta::new(&format!("relay{i}.example"), vec![ip], profile);
                if policy {
                    sender = sender.with_retry_policy(crate::RetryPolicy::resilient());
                }
                for n in 0..2 {
                    sender.submit(
                        domain.parse().unwrap(),
                        ReversePath::Address(format!("a{n}@relay{i}.example").parse().unwrap()),
                        vec![format!("u{n}@{domain}").parse().unwrap()],
                        Message::builder().body("x").build(),
                        SimTime::from_secs(60 * n),
                    );
                }
                sender.drain(SimTime::ZERO, &mut world);
                sender
            })
            .collect()
    }

    #[test]
    fn folded_senders_export_what_one_collect_each_does() {
        let senders = drained_senders();
        assert!(senders.iter().any(|s| s.breaker_trips() > 0), "a breaker trips");
        assert!(senders.iter().any(|s| !s.bounces().is_empty()), "a sender gives up");
        let with_policy: Vec<&SendingMta> =
            senders.iter().filter(|s| s.retry_policy().is_some()).collect();
        let without: Vec<&SendingMta> =
            senders.iter().filter(|s| s.retry_policy().is_none()).collect();
        let all: Vec<&SendingMta> = senders.iter().collect();
        for group in [&all[..], &with_policy[..], &without[..], &all[..1], &[][..]] {
            let mut each = Registry::new();
            let mut totals = SenderTotals::default();
            for sender in group {
                collect_sender(sender, &mut each);
                totals.add(sender);
            }
            let mut folded = Registry::new();
            totals.export(&mut folded);
            assert_eq!(folded, each, "{} senders", group.len());
            assert_eq!(folded.is_empty(), group.is_empty());
            assert_eq!(
                folded.counter(BREAKER_TRIPS).is_some(),
                group.iter().any(|s| s.retry_policy().is_some())
            );
        }
    }

    #[test]
    fn world_collection_reflects_a_delivery() {
        let victim_ip = Ipv4Addr::new(192, 0, 2, 10);
        let mut world = MailWorld::new(7);
        world.install_server(ReceivingMta::new("mx.victim.example", victim_ip).with_greylist(
            Greylist::new(
                GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist(),
            ),
        ));
        world.dns.publish(Zone::single_mx("victim.example".parse().unwrap(), victim_ip));

        let mut sender = SendingMta::new(
            "relay.example",
            vec![Ipv4Addr::new(198, 51, 100, 3)],
            MtaProfile::postfix(),
        );
        sender.submit(
            "victim.example".parse().unwrap(),
            ReversePath::Address("a@relay.example".parse().unwrap()),
            vec!["u@victim.example".parse().unwrap()],
            Message::builder().body("x").build(),
            SimTime::ZERO,
        );
        sender.drain(SimTime::ZERO, &mut world);

        let mut reg = Registry::new();
        collect_world(&world, &mut reg);
        collect_sender(&sender, &mut reg);

        assert_eq!(reg.counter(SEND_DELIVERED), Some(1));
        assert_eq!(reg.counter(RECV_ACCEPTED), Some(1));
        assert_eq!(reg.counter("greylist.deferred.new"), Some(1), "first contact was greylisted");
        assert_eq!(reg.counter("greylist.passed.after_delay"), Some(1));
        assert!(reg.counter("smtp.server.commands").unwrap_or(0) > 0);
        assert!(reg.counter("net.connect.attempted").unwrap_or(0) >= 2);
        assert!(reg.counter("dns.query.mx").unwrap_or(0) >= 1);
        // The delivered message waited out the 300 s delay.
        match reg.get(SEND_DELIVERY_DELAY_S) {
            Some(spamward_obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 1);
                assert!(h.sum() >= 300);
            }
            other => panic!("expected delay histogram, got {other:?}"),
        }
        // The drain ran as engine episodes, so the engine exports appear:
        // one drained episode whose wake-ups are the delivery attempts
        // (postfix retries at exactly 300 s, still inside the delay, so
        // delivery takes three attempts).
        assert_eq!(reg.counter(ENGINE_EVENTS), Some(3));
        assert_eq!(reg.gauge(ENGINE_QUEUE_HIGH_WATER), Some(1));
        assert_eq!(reg.counter(ENGINE_OUTCOME_DRAINED), Some(1));
        assert_eq!(reg.counter(ENGINE_OUTCOME_BUDGET_EXHAUSTED), Some(0));
        match reg.get("sim.engine.episode_events.mta.send") {
            Some(spamward_obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 1);
                assert_eq!(h.sum(), 3);
            }
            other => panic!("expected episode histogram, got {other:?}"),
        }
    }

    #[test]
    fn undriven_world_exports_no_engine_metrics() {
        let world = MailWorld::new(9);
        let mut reg = Registry::new();
        collect_world(&world, &mut reg);
        assert_eq!(reg.counter(ENGINE_EVENTS), None);
        assert_eq!(reg.counter(ENGINE_OUTCOME_DRAINED), None);
    }

    /// Degradation counters exist only on a server whose greylist has
    /// outage windows: not on a fault-free one, nor on one without a
    /// greylist under a store-outage plan.
    #[test]
    fn degradation_counters_follow_the_greylist_outage_windows() {
        use spamward_net::{FaultPlan, FaultProfile};
        let (greylisted, plain) = (Ipv4Addr::new(192, 0, 2, 10), Ipv4Addr::new(192, 0, 2, 11));
        let mut world = MailWorld::new(3);
        world.install_server(
            ReceivingMta::new("mx.a.example", greylisted)
                .with_greylist(Greylist::new(GreylistConfig::default())),
        );
        world.install_server(ReceivingMta::new("mx.b.example", plain));
        let exported = |world: &MailWorld, ip| {
            let mut reg = Registry::new();
            collect_receiver(world.server(ip).unwrap(), &mut reg);
            reg.counter(GREYLIST_DEGRADED_FAIL_CLOSED)
        };
        assert_eq!(exported(&world, greylisted), None);
        world.install_faults(&FaultPlan::compile(&FaultProfile::store_degraded(), 3));
        assert_eq!(exported(&world, greylisted), Some(0));
        assert_eq!(exported(&world, plain), None);
    }
}

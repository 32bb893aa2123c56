//! The glue tying DNS, the network and receiving servers into one world.

use crate::events::{AtExchanger, EventLog, WorldEvent};
use crate::metrics::{
    SAMPLE_ENGINE_EVENTS, SAMPLE_ENGINE_QUEUE_HIGH_WATER, SAMPLE_GREYLIST_DEFERRED,
    SAMPLE_GREYLIST_PASSED, SAMPLE_RECV_ACCEPTED, SAMPLE_RECV_MAILBOX, SAMPLE_STORE_BYTES,
    SAMPLE_STORE_SIZE,
};
use crate::receive::ReceivingMta;
use spamward_dns::{Authority, DomainName, MxHost, ResolveError, Resolver};
use spamward_net::faults::TARPIT_HOLD;
use spamward_net::{ConnectError, FaultPlan, Network, SmtpAbortKind, SmtpFaults, SMTP_PORT};
use spamward_obs::TimeSeries;
use spamward_sim::{DetRng, EngineBuffers, EngineStats, SimDuration, SimTime};
use spamward_smtp::{
    exchange_counted, ClientSession, DeliveryOutcome, Dialect, Envelope, Message, ServerSession,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Which MX records a sender targets — the paper's four-way bot taxonomy
/// (§IV-B), equally applicable to benign MTAs (always `RfcCompliant`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MxStrategy {
    /// Try every exchanger in ascending preference order (RFC 5321).
    RfcCompliant,
    /// Only the highest-priority exchanger — nolisting's prey (Kelihos).
    PrimaryOnly,
    /// Only the lowest-priority exchanger, skipping the primary outright —
    /// the anti-nolisting adaptation (Cutwail).
    SecondaryOnly,
    /// Every exchanger in random order.
    AllRandom,
}

impl MxStrategy {
    /// Orders resolved MX hosts into the candidate list this strategy
    /// would try: a slice of `mxs` in place, or a shuffled copy for
    /// [`MxStrategy::AllRandom`].
    pub fn candidates<'a>(self, mxs: &'a [MxHost], rng: &mut DetRng) -> Cow<'a, [MxHost]> {
        if mxs.is_empty() {
            return Cow::Borrowed(mxs);
        }
        // `resolve_mx` returns hosts sorted by ascending preference.
        match self {
            MxStrategy::RfcCompliant => Cow::Borrowed(mxs),
            MxStrategy::PrimaryOnly => Cow::Borrowed(&mxs[..1]),
            MxStrategy::SecondaryOnly => Cow::Borrowed(&mxs[mxs.len() - 1..]),
            MxStrategy::AllRandom => {
                let mut shuffled = mxs.to_vec();
                rng.shuffle(&mut shuffled);
                Cow::Owned(shuffled)
            }
        }
    }
}

/// One MX the sender tried, and how far it got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxAttempt {
    /// The exchanger's name.
    pub mx: DomainName,
    /// The exchanger's position in the preference-ordered MX set
    /// (0 = primary), regardless of the order the strategy tried hosts in.
    pub preference_rank: usize,
    /// Its resolved address (None = dangling MX, skipped).
    pub ip: Option<Ipv4Addr>,
    /// Why no SMTP session ran, or `None` if one did.
    pub connect_error: Option<ConnectFailure>,
}

/// Why an exchanger yielded no SMTP session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectFailure {
    /// The MX name has no address (a dangling MX, skipped).
    NoARecord,
    /// The network refused, dropped or could not route the connection.
    Network(ConnectError),
    /// The host answered TCP but its MTA was down (crashed).
    MtaDown,
}

impl fmt::Display for ConnectFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectFailure::NoARecord => f.write_str("no A record"),
            ConnectFailure::Network(err) => write!(f, "{err}"),
            ConnectFailure::MtaDown => f.write_str("connection refused (mta down)"),
        }
    }
}

/// The full report of one delivery attempt.
#[derive(Debug, Clone)]
pub struct AttemptReport {
    /// Final outcome of the attempt.
    pub outcome: DeliveryOutcome,
    /// Every exchanger tried, in order.
    pub mx_trail: Vec<MxAttempt>,
    /// Wall-clock the *sender* spent on the attempt (connect timeouts
    /// dominate when the primary is filtered).
    pub time_spent: SimDuration,
}

impl AttemptReport {
    fn resolve_failed(err: ResolveError, recipients: &[spamward_smtp::EmailAddress]) -> Self {
        let transient = matches!(err, ResolveError::ServFail);
        AttemptReport {
            outcome: DeliveryOutcome::connect_failed(recipients, transient),
            mx_trail: Vec::new(),
            time_spent: SimDuration::ZERO,
        }
    }

    /// Whether this attempt failed *at the transport*: every exchanger
    /// tried ended in a connect error and no SMTP session ever ran. This is
    /// the signal the per-destination circuit breaker
    /// ([`crate::send::RetryPolicy`]) counts — SMTP-level tempfails
    /// (greylisting, mid-session aborts) do not trip it, because the
    /// destination host demonstrably answered.
    pub fn connection_failed(&self) -> bool {
        !self.outcome.is_delivered()
            && self.outcome.is_retryable()
            && !self.mx_trail.is_empty()
            && self.mx_trail.iter().all(|a| a.connect_error.is_some())
    }
}

/// The simulated mail internet: network + DNS + receiving servers.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_dns::Zone;
/// use spamward_mta::{MailWorld, MxStrategy, ReceivingMta};
/// use spamward_sim::SimTime;
/// use spamward_smtp::{Dialect, Envelope, Message, EmailAddress};
///
/// let mut world = MailWorld::new(42);
/// let mx_ip = Ipv4Addr::new(192, 0, 2, 10);
/// world.install_server(ReceivingMta::new("mail.foo.net", mx_ip));
/// world.dns.publish(Zone::single_mx("foo.net".parse()?, mx_ip));
///
/// let env = Envelope::builder()
///     .client_ip(Ipv4Addr::new(203, 0, 113, 9))
///     .mail_from("a@relay.example".parse::<EmailAddress>()?)
///     .rcpt("u@foo.net".parse()?)
///     .build();
/// let msg = Message::builder().header("Subject", "hi").body("x").build();
/// let report = world.attempt_delivery(
///     SimTime::ZERO,
///     &Dialect::compliant_mta("relay.example"),
///     MxStrategy::RfcCompliant,
///     &"foo.net".parse()?,
///     env,
///     msg,
/// );
/// assert!(report.outcome.is_delivered());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MailWorld {
    /// The simulated IPv4 internet.
    pub network: Network,
    /// The global DNS.
    pub dns: Authority,
    /// A shared caching resolver.
    pub resolver: Resolver,
    /// Scan/availability epoch (bump to re-roll flaky hosts).
    pub epoch: u64,
    /// Typed record of delivery activity, read as trace lines or timeline
    /// tracks to explain *why* a run produced its numbers (off unless
    /// [`MailWorld::with_tracing`] enabled it).
    pub events: EventLog,
    /// Accounting for every engine episode run against this world (see
    /// [`crate::worldsim::WorldSim`]).
    pub engine_stats: EngineStats,
    /// Cumulative event budget across episodes: once `engine_stats.events`
    /// reaches it, further episodes end in
    /// [`spamward_sim::RunOutcome::BudgetExhausted`]. `None` = unlimited.
    pub event_budget: Option<u64>,
    /// Virtual-time telemetry samples, recorded by the engine's sampler
    /// actor on every tick (empty unless [`MailWorld::with_sampling`]
    /// enabled sampling).
    pub samples: TimeSeries,
    /// The engine's queue and counter storage, lent to each episode
    /// ([`crate::worldsim::WorldSim`]) and kept between them.
    pub(crate) engine_buffers: EngineBuffers,
    servers: BTreeMap<Ipv4Addr, ReceivingMta>,
    smtp_faults: Option<SmtpFaults>,
    fault_edges: Vec<SimTime>,
    fault_boundaries: u64,
    sample_interval: Option<SimDuration>,
    maintenance_interval: Option<SimDuration>,
    checkpoint_interval: Option<SimDuration>,
    rng: DetRng,
}

impl MailWorld {
    /// Creates an empty world.
    pub fn new(seed: u64) -> Self {
        MailWorld {
            network: Network::new(seed),
            dns: Authority::new(),
            resolver: Resolver::new(),
            epoch: 0,
            events: EventLog::default(),
            engine_stats: EngineStats::default(),
            event_budget: None,
            samples: TimeSeries::new(),
            engine_buffers: EngineBuffers::default(),
            servers: BTreeMap::new(),
            smtp_faults: None,
            fault_edges: Vec::new(),
            fault_boundaries: 0,
            sample_interval: None,
            maintenance_interval: None,
            checkpoint_interval: None,
            rng: DetRng::seed(seed).fork("mailworld"),
        }
    }

    /// Installs a compiled fault plan, distributing its halves to the
    /// network (outages, link loss, latency spikes), the resolver (SERVFAIL
    /// and slow-resolver windows), the SMTP exchange path (mid-session
    /// aborts) and every *already installed* receiving server (greylist
    /// store outages, crash windows) — install servers before faults.
    ///
    /// The world also keeps the plan's window edges: every later engine
    /// episode on it ([`crate::worldsim::WorldSim`]) fires them as
    /// `net.fault` events beside its drivers.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.network.install_faults(plan.net.clone());
        self.resolver.install_faults(plan.dns.clone());
        self.smtp_faults = Some(plan.smtp.clone());
        self.fault_edges = plan.boundaries();
        for server in self.servers.values_mut() {
            // A greylist's store refuses lookups inside these windows,
            // in-process or remote alike.
            if let Some(gl) = server.greylist_mut() {
                gl.set_outages(plan.greylist_down.iter().map(|w| (w.from, w.until)).collect());
            }
            // Crash windows are addressed by hostname — each server gets
            // only its own schedule.
            let windows = plan.crash_windows_for(server.hostname());
            server.install_crash_schedule(windows);
        }
    }

    /// The installed SMTP-abort fault state (with its counters), if any.
    pub fn smtp_faults(&self) -> Option<&SmtpFaults> {
        self.smtp_faults.as_ref()
    }

    /// The installed fault plan's window edges, sorted and deduplicated.
    pub(crate) fn fault_edges(&self) -> &[SimTime] {
        &self.fault_edges
    }

    /// Records that a fault window opened or closed at `now`. The world's
    /// fault timer ([`crate::worldsim::WorldSim`]) calls this from inside
    /// engine events, so window edges are ordered through the engine queue
    /// like every other occurrence.
    pub fn note_fault_boundary(&mut self, now: SimTime) {
        self.fault_boundaries += 1;
        self.events.record(now, || WorldEvent::FaultEdge);
        // Crash and restart edges are fault boundaries too: fire every
        // server's lifecycle transitions due at this instant, so restarts
        // (and their recovery) happen as engine events even on servers
        // receiving no traffic.
        let crashy: Vec<Ipv4Addr> = self
            .servers
            .iter()
            .filter(|(_, s)| s.has_crash_schedule())
            .map(|(ip, _)| *ip)
            .collect();
        for ip in crashy {
            self.advance_crash_lifecycle(ip, now);
        }
    }

    /// Advances one server's crash–restart lifecycle to `now` and records
    /// the fired transitions. Idempotent — the delivery path and the fault
    /// timer both poll, and each edge fires once.
    fn advance_crash_lifecycle(&mut self, ip: Ipv4Addr, now: SimTime) {
        let Some(server) = self.servers.get_mut(&ip) else { return };
        if !server.has_crash_schedule() {
            return;
        }
        for transition in server.poll_crash(now) {
            let host = server.hostname();
            self.events.record(now, || WorldEvent::Crash { host: host.to_owned(), transition });
        }
    }

    /// How many fault window boundaries have fired as engine events.
    pub fn fault_boundaries(&self) -> u64 {
        self.fault_boundaries
    }

    /// Enables the world's event record (bounded; see [`EventLog`]),
    /// behind both trace lines and timeline tracks.
    pub fn with_tracing(mut self) -> Self {
        self.events = EventLog::enabled();
        self
    }

    /// Enables virtual-time telemetry sampling: every horizon-bounded
    /// engine episode run against this world (see
    /// [`crate::worldsim::WorldSim`]) runs a sampler timer that snapshots
    /// counters/gauges into [`MailWorld::samples`] every `interval` of
    /// virtual time.
    pub fn with_sampling(mut self, interval: SimDuration) -> Self {
        self.sample_interval = Some(interval);
        self
    }

    /// The telemetry sampling interval, if sampling is enabled.
    pub fn sample_interval(&self) -> Option<SimDuration> {
        self.sample_interval
    }

    /// Enables periodic greylist-store maintenance: every horizon-bounded
    /// engine episode run against this world (see
    /// [`crate::worldsim::WorldSim`]) runs a maintenance timer that calls
    /// [`MailWorld::maintain_stores`] every `interval` of virtual time, so
    /// expired triplets are swept on a schedule (as a Postgrey cron job
    /// would) instead of lazily on lookup.
    pub fn with_store_maintenance(mut self, interval: SimDuration) -> Self {
        self.maintenance_interval = Some(interval);
        self
    }

    /// The store-maintenance sweep interval, if enabled.
    pub fn maintenance_interval(&self) -> Option<SimDuration> {
        self.maintenance_interval
    }

    /// Enables periodic durability checkpointing: every horizon-bounded
    /// engine episode run against this world (see
    /// [`crate::worldsim::WorldSim`]) runs a checkpoint timer that calls
    /// [`MailWorld::checkpoint_stores`] every `interval` of virtual time —
    /// the in-simulation analogue of Postgrey's periodic on-disk database
    /// sync. Servers left at
    /// [`spamward_greylist::DurabilityMode::Volatile`] ignore the ticks.
    pub fn with_checkpointing(mut self, interval: SimDuration) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// The durability-checkpoint interval, if enabled.
    pub fn checkpoint_interval(&self) -> Option<SimDuration> {
        self.checkpoint_interval
    }

    /// Takes a durability checkpoint on every installed server
    /// ([`ReceivingMta::checkpoint`] — snapshot the store, truncate the
    /// WAL). The world's checkpoint timer calls this on every tick.
    pub fn checkpoint_stores(&mut self, now: SimTime) {
        for server in self.servers.values_mut() {
            server.checkpoint(now);
        }
    }

    /// Sweeps expired triplets from every server's greylist store and
    /// samples real store occupancy (`obs.sample.greylist.store_*`) at
    /// `now`. The world's maintenance timer calls this on every tick.
    pub fn maintain_stores(&mut self, now: SimTime) {
        let mut size: i64 = 0;
        let mut bytes: i64 = 0;
        for server in self.servers.values_mut() {
            if let Some(gl) = server.greylist_mut() {
                gl.maintain(now);
                size += i64::try_from(gl.store().len()).unwrap_or(i64::MAX);
                bytes += i64::try_from(gl.store().approx_bytes()).unwrap_or(i64::MAX);
            }
        }
        self.samples.record_point(SAMPLE_STORE_SIZE, now, size);
        self.samples.record_point(SAMPLE_STORE_BYTES, now, bytes);
    }

    /// Snapshots greylist, delivery and engine counters into
    /// [`MailWorld::samples`] at virtual time `now`. The world's sampler
    /// timer calls this on every tick; engine figures cover *completed*
    /// episodes (the running episode's events merge at episode end).
    pub fn sample_telemetry(&mut self, now: SimTime) {
        let mut greylisted: i64 = 0;
        let mut passed: i64 = 0;
        let mut accepted: i64 = 0;
        let mut mailbox: i64 = 0;
        for server in self.servers.values() {
            let stats = server.stats();
            greylisted += i64::try_from(stats.rcpt_greylisted).unwrap_or(i64::MAX);
            passed += i64::try_from(stats.rcpt_passed).unwrap_or(i64::MAX);
            accepted += i64::try_from(stats.messages_accepted).unwrap_or(i64::MAX);
            mailbox += i64::try_from(server.mailbox().len()).unwrap_or(i64::MAX);
        }
        self.samples.record_point(SAMPLE_GREYLIST_DEFERRED, now, greylisted);
        self.samples.record_point(SAMPLE_GREYLIST_PASSED, now, passed);
        self.samples.record_point(SAMPLE_RECV_ACCEPTED, now, accepted);
        self.samples.record_point(SAMPLE_RECV_MAILBOX, now, mailbox);
        self.samples.record_point(
            SAMPLE_ENGINE_EVENTS,
            now,
            i64::try_from(self.engine_stats.events).unwrap_or(i64::MAX),
        );
        self.samples.record_point(
            SAMPLE_ENGINE_QUEUE_HIGH_WATER,
            now,
            i64::try_from(self.engine_stats.queue_high_water).unwrap_or(i64::MAX),
        );
    }

    /// Registers a receiving server: adds a host with port 25 open to the
    /// network (if its IP is new) and routes SMTP sessions to the MTA.
    pub fn install_server(&mut self, mta: ReceivingMta) {
        if self.network.host_at(mta.ip()).is_none() {
            self.network.host(mta.hostname()).ip(mta.ip()).smtp_open().build();
        }
        self.servers.insert(mta.ip(), mta);
    }

    /// The server listening at `ip`.
    pub fn server(&self, ip: Ipv4Addr) -> Option<&ReceivingMta> {
        self.servers.get(&ip)
    }

    /// Mutable access to the server at `ip`.
    pub fn server_mut(&mut self, ip: Ipv4Addr) -> Option<&mut ReceivingMta> {
        self.servers.get_mut(&ip)
    }

    /// Iterates over installed servers.
    pub fn servers(&self) -> impl Iterator<Item = &ReceivingMta> {
        self.servers.values()
    }

    /// Executes one complete delivery attempt for `envelope` to `domain`.
    ///
    /// Resolves the domain's MX set, orders candidates per `strategy`,
    /// connects through the simulated network (charging timeouts for
    /// filtered ports), and runs the full SMTP exchange against the
    /// receiving server. RFC-compliant senders fall through to the next
    /// exchanger on connection failure — the crux of nolisting.
    pub fn attempt_delivery(
        &mut self,
        now: SimTime,
        dialect: &Dialect,
        strategy: MxStrategy,
        domain: &DomainName,
        envelope: Envelope,
        message: Message,
    ) -> AttemptReport {
        self.events.record(now, || WorldEvent::Attempt(envelope.clone()));
        // A slow-resolver fault charges its surcharge whether or not the
        // lookup succeeds; the sender pays it before anything else happens.
        let dns_extra = self.resolver.fault_extra_latency(now);
        let lookup = self.resolver.resolve_mx(&mut self.dns, domain, now);
        self.events.record(now, || WorldEvent::MxLookup {
            domain: domain.clone(),
            result: lookup.as_ref().map(Vec::len).map_err(|e| *e),
        });
        let mxs = match lookup {
            Ok(mxs) => mxs,
            Err(e) => {
                let mut report = AttemptReport::resolve_failed(e, envelope.recipients());
                report.time_spent = dns_extra;
                return report;
            }
        };
        // Receiving servers reverse-resolve the connecting client once per
        // session; name-based whitelists depend on it.
        let client_rdns: Option<String> =
            self.dns.resolve_ptr(envelope.client_ip()).map(|n| n.to_string());
        let candidates = strategy.candidates(&mxs, &mut self.rng);
        let mut trail = Vec::new();
        let mut time_spent = dns_extra;

        for cand in candidates.iter() {
            // Rank in the preference-sorted set, not in strategy order — a
            // secondary-only bot's single attempt still reports rank 1.
            let preference_rank = mxs.iter().position(|m| m.name == cand.name).unwrap_or_default();
            let Some(ip) = cand.ip else {
                trail.push(MxAttempt {
                    mx: cand.name.clone(),
                    preference_rank,
                    ip: None,
                    connect_error: Some(ConnectFailure::NoARecord),
                });
                continue;
            };
            let note = |events: &mut EventLog, what: AtExchanger| {
                events.record(now, || WorldEvent::Exchanger { mx: cand.name.clone(), ip, what });
            };
            match self.network.connect_at(ip, SMTP_PORT, self.epoch, now) {
                Err(err) => {
                    let rtt = SimDuration::from_millis(100);
                    time_spent += err.client_cost(rtt);
                    let failure = ConnectFailure::Network(err);
                    note(&mut self.events, AtExchanger::ConnectFailed(failure));
                    trail.push(MxAttempt {
                        mx: cand.name.clone(),
                        preference_rank,
                        ip: Some(ip),
                        connect_error: Some(failure),
                    });
                    // Fail fast on RST, slow on filtered — either way, an
                    // RFC-compliant sender moves to the next exchanger.
                    continue;
                }
                Ok(conn) => {
                    // Bring the destination's crash lifecycle up to date
                    // before deciding anything — a delivery landing between
                    // fault-timer ticks must still see the right
                    // up/down state and the recovered store.
                    self.advance_crash_lifecycle(ip, now);
                    if self.servers.get(&ip).is_some_and(|s| s.is_crashed_at(now)) {
                        // The machine answers TCP (the network layer is
                        // up) but no MTA is listening: connection refused,
                        // one round trip. This IS a connect failure — the
                        // sender's circuit breaker counts it.
                        time_spent += conn.rtt;
                        if let Some(server) = self.servers.get_mut(&ip) {
                            server.note_refused_connection();
                        }
                        note(&mut self.events, AtExchanger::ConnectFailed(ConnectFailure::MtaDown));
                        trail.push(MxAttempt {
                            mx: cand.name.clone(),
                            preference_rank,
                            ip: Some(ip),
                            connect_error: Some(ConnectFailure::MtaDown),
                        });
                        continue;
                    }
                    trail.push(MxAttempt {
                        mx: cand.name.clone(),
                        preference_rank,
                        ip: Some(ip),
                        connect_error: None,
                    });
                    note(&mut self.events, AtExchanger::Connected);
                    // An injected mid-session abort kills the session after
                    // the handshake: the client pays the flavour's cost and
                    // sees a transient failure; nothing is stored.
                    if let Some(faults) = &mut self.smtp_faults {
                        if let Some(kind) = faults.abort(ip, now) {
                            time_spent += match kind {
                                // One round trip: greeting, 421, close.
                                SmtpAbortKind::Shutdown421 => conn.rtt,
                                // The dialogue ran up through DATA before
                                // the carpet was pulled: about six exchanges.
                                SmtpAbortKind::DropAfterData => conn.rtt * 6,
                                // The client hangs on a silent server until
                                // its own patience runs out.
                                SmtpAbortKind::Tarpit => TARPIT_HOLD + conn.rtt,
                            };
                            note(&mut self.events, AtExchanger::Aborted(kind));
                            let outcome =
                                DeliveryOutcome::connect_failed(envelope.recipients(), true);
                            return AttemptReport { outcome, mx_trail: trail, time_spent };
                        }
                    }
                    // A crash instant landing inside the session's span
                    // cuts the dialogue mid-DATA: the connection *was*
                    // established (the trail entry above says so, which is
                    // what keeps the circuit breaker from counting this),
                    // the client pays a full session's round trips, and
                    // nothing is stored — exactly the shape of an injected
                    // `DropAfterData` abort.
                    let session_span = conn.rtt * 6;
                    let mid_session_crash =
                        self.servers.get(&ip).and_then(|s| s.crash_during(now, now + session_span));
                    if let Some(crash_at) = mid_session_crash {
                        time_spent += session_span;
                        if let Some(server) = self.servers.get_mut(&ip) {
                            server.note_session_dropped();
                        }
                        note(&mut self.events, AtExchanger::CrashCut(crash_at));
                        let outcome = DeliveryOutcome::connect_failed(envelope.recipients(), true);
                        return AttemptReport { outcome, mx_trail: trail, time_spent };
                    }
                    let Some(server_mta) = self.servers.get_mut(&ip) else {
                        // Port open but nothing we manage behind it (e.g. a
                        // population host): treat as transient.
                        let outcome = DeliveryOutcome::connect_failed(envelope.recipients(), true);
                        return AttemptReport { outcome, mx_trail: trail, time_spent };
                    };
                    // This branch always returns, so the sessions take the
                    // envelope, message and rDNS name by move.
                    let mut session =
                        ServerSession::new(server_mta.shared_hostname(), envelope.client_ip())
                            .with_client_rdns(client_rdns);
                    let mut client = ClientSession::new(dialect.clone(), envelope, message);
                    let (outcome, steps) =
                        exchange_counted(&mut client, &mut session, server_mta, now + conn.rtt);
                    server_mta.absorb_smtp(session.metrics());
                    // Rough time accounting: one RTT per protocol exchange.
                    time_spent += conn.rtt * (steps as u64);
                    self.events.record(now, || WorldEvent::Session {
                        envelope: client.envelope().clone(),
                        mx: cand.name.clone(),
                        outcome: outcome.clone(),
                    });
                    return AttemptReport { outcome, mx_trail: trail, time_spent };
                }
            }
        }

        // Exhausted every candidate without completing a session.
        AttemptReport {
            outcome: DeliveryOutcome::connect_failed(envelope.recipients(), true),
            mx_trail: trail,
            time_spent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_dns::Zone;
    use spamward_greylist::{Greylist, GreylistConfig};
    use spamward_net::PortState;
    use spamward_smtp::EmailAddress;

    fn env(rcpt: &str) -> Envelope {
        Envelope::builder()
            .client_ip(Ipv4Addr::new(203, 0, 113, 9))
            .helo("client.example")
            .mail_from("a@relay.example".parse::<EmailAddress>().unwrap())
            .rcpt(rcpt.parse().unwrap())
            .build()
    }

    fn msg() -> Message {
        Message::builder().header("Subject", "s").body("b").build()
    }

    fn domain(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    /// A world with foo.net protected by nolisting: primary MX dead
    /// (port 25 closed), secondary working.
    fn nolisting_world() -> (MailWorld, Ipv4Addr, Ipv4Addr) {
        let mut w = MailWorld::new(1);
        let dead = Ipv4Addr::new(192, 0, 2, 1);
        let live = Ipv4Addr::new(192, 0, 2, 2);
        // The dead primary: a real machine with port 25 closed.
        w.network.host("smtp.foo.net").ip(dead).port(SMTP_PORT, PortState::Closed).build();
        w.install_server(ReceivingMta::new("smtp1.foo.net", live));
        w.dns.publish(Zone::nolisting(domain("foo.net"), dead, live));
        (w, dead, live)
    }

    #[test]
    fn rfc_compliant_sender_beats_nolisting() {
        let (mut w, _, live) = nolisting_world();
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("foo.net"),
            env("u@foo.net"),
            msg(),
        );
        assert!(report.outcome.is_delivered(), "compliant MTA must fall through to secondary");
        assert_eq!(report.mx_trail.len(), 2);
        assert!(report.mx_trail[0].connect_error.is_some());
        assert_eq!(report.mx_trail[1].ip, Some(live));
        assert!(report.mx_trail[1].connect_error.is_none());
        assert_eq!(w.server(live).unwrap().mailbox().len(), 1);
    }

    #[test]
    fn primary_only_bot_defeated_by_nolisting() {
        let (mut w, _, live) = nolisting_world();
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::minimal_bot("kelihos"),
            MxStrategy::PrimaryOnly,
            &domain("foo.net"),
            env("u@foo.net"),
            msg(),
        );
        assert!(!report.outcome.is_delivered());
        assert!(report.outcome.is_retryable(), "connection refusal is transient");
        assert_eq!(report.mx_trail.len(), 1);
        assert_eq!(w.server(live).unwrap().mailbox().len(), 0);
    }

    #[test]
    fn secondary_only_bot_ignores_nolisting() {
        let (mut w, _, live) = nolisting_world();
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::minimal_bot("cutwail"),
            MxStrategy::SecondaryOnly,
            &domain("foo.net"),
            env("u@foo.net"),
            msg(),
        );
        assert!(report.outcome.is_delivered(), "secondary-only bot lands on the live server");
        assert_eq!(report.mx_trail.len(), 1);
        assert_eq!(report.mx_trail[0].ip, Some(live));
    }

    #[test]
    fn all_random_tries_everything() {
        let (mut w, _, _) = nolisting_world();
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::minimal_bot("rand"),
            MxStrategy::AllRandom,
            &domain("foo.net"),
            env("u@foo.net"),
            msg(),
        );
        // Whatever the shuffle order, the live secondary is eventually hit.
        assert!(report.outcome.is_delivered());
    }

    #[test]
    fn greylisted_world_defers_then_delivers() {
        let mut w = MailWorld::new(2);
        let ip = Ipv4Addr::new(192, 0, 2, 9);
        w.install_server(
            ReceivingMta::new("mail.bar.org", ip).with_greylist(Greylist::new(
                GreylistConfig::with_delay(SimDuration::from_secs(300)),
            )),
        );
        w.dns.publish(Zone::single_mx(domain("bar.org"), ip));

        let d = Dialect::compliant_mta("relay.example");
        let first = w.attempt_delivery(
            SimTime::ZERO,
            &d,
            MxStrategy::RfcCompliant,
            &domain("bar.org"),
            env("u@bar.org"),
            msg(),
        );
        assert!(!first.outcome.is_delivered());
        assert!(first.outcome.is_retryable());
        // One RTT (170.885 ms to this MX) per transcript line: banner, EHLO,
        // 250, MAIL, 250, RCPT, 450, QUIT, 221.
        assert_eq!(first.time_spent, SimDuration::from_micros(170_885) * 9);

        let second = w.attempt_delivery(
            SimTime::from_secs(600),
            &d,
            MxStrategy::RfcCompliant,
            &domain("bar.org"),
            env("u@bar.org"),
            msg(),
        );
        assert!(second.outcome.is_delivered());
    }

    #[test]
    fn nxdomain_is_permanent_failure() {
        let mut w = MailWorld::new(3);
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("ghost.example"),
            env("u@ghost.example"),
            msg(),
        );
        assert!(matches!(report.outcome, DeliveryOutcome::PermFailed { .. }));
    }

    #[test]
    fn dangling_mx_skipped_by_compliant_sender() {
        let mut w = MailWorld::new(4);
        let live = Ipv4Addr::new(192, 0, 2, 30);
        w.install_server(ReceivingMta::new("mx2.baz.io", live));
        // Primary MX has no A record; secondary is fine.
        w.dns.publish(
            Zone::builder(domain("baz.io"))
                .mx_to(0, domain("ghost.baz.io"))
                .mx(10, "mx2", live)
                .build(),
        );
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("baz.io"),
            env("u@baz.io"),
            msg(),
        );
        assert!(report.outcome.is_delivered());
        assert_eq!(report.mx_trail[0].connect_error, Some(ConnectFailure::NoARecord));
        assert_eq!(ConnectFailure::NoARecord.to_string(), "no A record");
    }

    #[test]
    fn filtered_primary_charges_timeout() {
        let mut w = MailWorld::new(5);
        let filtered = Ipv4Addr::new(192, 0, 2, 40);
        let live = Ipv4Addr::new(192, 0, 2, 41);
        w.network.host("fw.qux.org").ip(filtered).port(SMTP_PORT, PortState::Filtered).build();
        w.install_server(ReceivingMta::new("mx2.qux.org", live));
        w.dns.publish(Zone::nolisting(domain("qux.org"), filtered, live));
        // Overwrite: nolisting() gave the dead host its own A/host; we
        // installed `filtered` manually, so remap DNS to our hosts.
        w.dns.publish(
            Zone::builder(domain("qux.org"))
                .mx_to(0, domain("fw.qux.org"))
                .a_at(domain("fw.qux.org"), filtered)
                .mx_to(10, domain("mx2.qux.org"))
                .a_at(domain("mx2.qux.org"), live)
                .build(),
        );
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("qux.org"),
            env("u@qux.org"),
            msg(),
        );
        assert!(report.outcome.is_delivered());
        assert!(
            report.time_spent >= w.network.syn_timeout,
            "filtered primary must cost the SYN timeout, got {}",
            report.time_spent
        );
    }

    #[test]
    fn tracing_records_the_delivery_story() {
        let (mut w, _, _) = {
            let mut w = MailWorld::new(1).with_tracing();
            let dead = Ipv4Addr::new(192, 0, 2, 1);
            let live = Ipv4Addr::new(192, 0, 2, 2);
            w.network.host("smtp.foo.net").ip(dead).port(SMTP_PORT, PortState::Closed).build();
            w.install_server(ReceivingMta::new("smtp1.foo.net", live));
            w.dns.publish(Zone::nolisting(domain("foo.net"), dead, live));
            (w, dead, live)
        };
        w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("foo.net"),
            env("u@foo.net"),
            msg(),
        );
        let story: Vec<String> = w.events.lines().collect();
        let count = |category: &str| story.iter().filter(|l| l.contains(category)).count();
        assert_eq!(count("] dns.mx: "), 1);
        assert_eq!(count("] net.fail: "), 1, "the dead primary must be traced");
        assert_eq!(count("] smtp.outcome: "), 1);
        assert!(story[1].contains("connection refused"), "{story:?}");

        // Untraced worlds stay silent and cost nothing.
        let mut quiet = MailWorld::new(2);
        quiet.install_server(ReceivingMta::new("m.bar.org", Ipv4Addr::new(192, 0, 2, 9)));
        quiet.dns.publish(Zone::single_mx(domain("bar.org"), Ipv4Addr::new(192, 0, 2, 9)));
        quiet.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("bar.org"),
            env("u@bar.org"),
            msg(),
        );
        assert_eq!(quiet.events.lines().count(), 0);
    }

    #[test]
    fn rdns_whitelist_exempts_named_provider() {
        use spamward_greylist::GreylistConfig;
        let mut cfg =
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist();
        cfg.whitelist_clients.add_domain_suffix("bigmail.example");

        let mut w = MailWorld::new(31);
        let mx = Ipv4Addr::new(192, 0, 2, 60);
        w.install_server(ReceivingMta::new("mail.foo.net", mx).with_greylist(Greylist::new(cfg)));
        w.dns.publish(Zone::single_mx(domain("foo.net"), mx));
        // The provider's outbound host has matching reverse DNS.
        let provider_ip = Ipv4Addr::new(64, 233, 160, 5);
        w.dns.publish_ptr(provider_ip, "out-1.bigmail.example".parse().unwrap());

        let provider_env = Envelope::builder()
            .client_ip(provider_ip)
            .helo("out-1.bigmail.example")
            .mail_from("a@bigmail.example".parse::<EmailAddress>().unwrap())
            .rcpt("u@foo.net".parse().unwrap())
            .build();
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("out-1.bigmail.example"),
            MxStrategy::RfcCompliant,
            &domain("foo.net"),
            provider_env,
            msg(),
        );
        assert!(report.outcome.is_delivered(), "rDNS-whitelisted client must skip greylisting");

        // A client with no (or wrong) rDNS gets greylisted as usual.
        let report = w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("foo.net"),
            env("u@foo.net"),
            msg(),
        );
        assert!(!report.outcome.is_delivered());
    }

    #[test]
    fn timeline_records_the_greylist_lifecycle() {
        let mut w = MailWorld::new(2).with_tracing();
        let ip = Ipv4Addr::new(192, 0, 2, 9);
        w.install_server(
            ReceivingMta::new("mail.bar.org", ip).with_greylist(Greylist::new(
                GreylistConfig::with_delay(SimDuration::from_secs(300)),
            )),
        );
        w.dns.publish(Zone::single_mx(domain("bar.org"), ip));

        let d = Dialect::compliant_mta("relay.example");
        for at in [SimTime::ZERO, SimTime::from_secs(600)] {
            w.attempt_delivery(
                at,
                &d,
                MxStrategy::RfcCompliant,
                &domain("bar.org"),
                env("u@bar.org"),
                msg(),
            );
        }

        let timeline = w.events.timeline("greylist");
        let names: Vec<&str> = timeline.events().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "timeline.emit",
                "timeline.dns",
                "timeline.connect",
                "timeline.greylist.defer",
                "timeline.retry",
                "timeline.dns",
                "timeline.connect",
                "timeline.greylist.pass",
                "timeline.deliver",
            ],
            "full lifecycle of a greylist-deferred message"
        );
        let tracks: Vec<&str> = timeline.events().map(|e| e.track.as_str()).collect();
        assert!(tracks.iter().all(|t| t.starts_with("greylist/")), "{tracks:?}");
        assert_eq!(
            timeline.to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"greylist/[203.0.113.9] <a@relay.example> -> u@bar.org\"}},\
            {\"name\":\"timeline.connect\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"mail.bar.org (192.0.2.9)\"}},\
            {\"name\":\"timeline.dns\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"bar.org: 1 exchanger(s)\"}},\
            {\"name\":\"timeline.emit\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"first attempt\"}},\
            {\"name\":\"timeline.greylist.defer\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"deferred with 450 at rcpt-to\"}},\
            {\"name\":\"timeline.connect\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"mail.bar.org (192.0.2.9)\"}},\
            {\"name\":\"timeline.deliver\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"delivered to 1 rcpt(s) (0 deferred, 0 rejected)\"}},\
            {\"name\":\"timeline.dns\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"bar.org: 1 exchanger(s)\"}},\
            {\"name\":\"timeline.greylist.pass\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"accepted after defer\"}},\
            {\"name\":\"timeline.retry\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":600000000,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"attempt 2\"}}]}"
        );

        // A world without tracing records nothing and costs nothing.
        let mut quiet = MailWorld::new(2);
        quiet.install_server(ReceivingMta::new("m.bar.org", Ipv4Addr::new(192, 0, 2, 9)));
        quiet.dns.publish(Zone::single_mx(domain("bar.org"), Ipv4Addr::new(192, 0, 2, 9)));
        quiet.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("bar.org"),
            env("u@bar.org"),
            msg(),
        );
        assert_eq!(quiet.events.lines().count(), 0);
        assert!(quiet.samples.is_empty());
    }

    #[test]
    fn sample_telemetry_snapshots_server_counters() {
        let mut w = MailWorld::new(7).with_sampling(SimDuration::from_secs(60));
        let ip = Ipv4Addr::new(192, 0, 2, 9);
        w.install_server(ReceivingMta::new("m.bar.org", ip));
        w.dns.publish(Zone::single_mx(domain("bar.org"), ip));
        w.attempt_delivery(
            SimTime::ZERO,
            &Dialect::compliant_mta("relay.example"),
            MxStrategy::RfcCompliant,
            &domain("bar.org"),
            env("u@bar.org"),
            msg(),
        );
        assert_eq!(w.sample_interval(), Some(SimDuration::from_secs(60)));
        w.sample_telemetry(SimTime::from_secs(60));
        assert_eq!(w.samples.get(SAMPLE_RECV_ACCEPTED, SimTime::from_secs(60)), Some(1));
        assert_eq!(w.samples.get(SAMPLE_RECV_MAILBOX, SimTime::from_secs(60)), Some(1));
        assert_eq!(w.samples.get(SAMPLE_GREYLIST_DEFERRED, SimTime::from_secs(60)), Some(0));
    }

    #[test]
    fn install_server_reuses_existing_host() {
        let mut w = MailWorld::new(6);
        let ip = Ipv4Addr::new(192, 0, 2, 50);
        w.network.host("pre.example").ip(ip).smtp_open().build();
        w.install_server(ReceivingMta::new("pre.example", ip));
        assert_eq!(w.network.len(), 1);
        assert!(w.server(ip).is_some());
    }
}

//! The receiving MTA: filter chain, mailbox and log.

use crate::log::anonymize;
use spamward_analysis::log::{LogEvent, LogRecord};
use spamward_greylist::{Decision, DurabilityMode, Greylist, PassReason, TripletKey};
use spamward_net::FaultWindow;
use spamward_sim::SimTime;
use spamward_smtp::metrics::SessionMetrics;
use spamward_smtp::{
    reply::codes, EmailAddress, Envelope, Message, PolicyDecision, Reply, ReversePath,
    ServerPolicy, Transaction,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Which RCPT addresses the server considers deliverable.
///
/// The paper relies on the fact that "email servers are typically configured
/// to refuse messages for non-existing recipients *before* applying
/// greylisting" — the ordering is load-bearing, and
/// [`ReceivingMta`] enforces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecipientPolicy {
    /// Accept any recipient (catch-all / open lab server).
    AcceptAll,
    /// Accept any local part at the given domain.
    Domain(String),
    /// Accept exactly these normalized addresses.
    List(HashSet<String>),
}

impl RecipientPolicy {
    /// Whether `rcpt` is deliverable here.
    pub fn accepts(&self, rcpt: &EmailAddress) -> bool {
        match self {
            RecipientPolicy::AcceptAll => true,
            RecipientPolicy::Domain(d) => rcpt.domain().eq_ignore_ascii_case(d),
            RecipientPolicy::List(set) => set.contains(&rcpt.normalized()),
        }
    }
}

/// Counters over everything the server saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiveStats {
    /// Completed transactions (messages stored).
    pub messages_accepted: u64,
    /// RCPTs refused for unknown users.
    pub rcpt_unknown: u64,
    /// RCPTs deferred by greylisting.
    pub rcpt_greylisted: u64,
    /// RCPTs that passed greylisting (any reason).
    pub rcpt_passed: u64,
    /// Sessions rejected for talking before the banner.
    pub pregreet_rejected: u64,
    /// RCPTs accepted *unchecked* because the greylist store was down and
    /// the server degrades fail-open.
    pub greylist_failed_open: u64,
    /// RCPTs tempfailed because the greylist store was down and the server
    /// degrades fail-closed.
    pub greylist_failed_closed: u64,
}

/// Counters over the crash–restart lifecycle and greylist recovery
/// (exported as `mta.crash.*` / `greylist.recovery.*` once a crash
/// schedule is installed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashStats {
    /// Crash instants that fired (the server process died).
    pub crashes: u64,
    /// Restart instants that fired (the server came back up).
    pub restarts: u64,
    /// Connection attempts refused while the server was down.
    pub refused_connections: u64,
    /// In-flight SMTP sessions cut mid-dialogue by a crash instant.
    pub sessions_dropped: u64,
    /// Durability checkpoints taken (periodic ticks plus the
    /// re-baselining checkpoint each restart takes after recovery).
    pub checkpoints: u64,
    /// Triplet entries restored from the last checkpoint across restarts.
    pub entries_restored: u64,
    /// WAL records replayed over the checkpoint across restarts.
    pub wal_records_replayed: u64,
    /// Torn final WAL records skipped deterministically during replay.
    pub wal_torn_skipped: u64,
    /// Triplet entries in memory at crash time that recovery did not get
    /// back (the durability mode's data-loss window, in entries).
    pub entries_lost: u64,
}

/// One crash-lifecycle edge a receiving MTA fired; the world records each
/// in its event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTransition {
    /// The server process died, losing its in-memory greylist database.
    Crashed {
        /// Live triplet entries in memory at the crash instant.
        entries_in_memory: u64,
    },
    /// The server came back and rebuilt state per its durability mode.
    Restarted {
        /// Entries restored from the last checkpoint.
        restored: u64,
        /// WAL records replayed over the checkpoint.
        replayed: u64,
        /// Torn final WAL records skipped during replay.
        torn: u64,
        /// Entries the crash cost despite recovery.
        lost: u64,
    },
}

/// What a greylisting server does when its triplet store is unavailable
/// (injected via [`spamward_net::FaultSpec::GreylistStoreDown`]).
///
/// The trade-off is the classic one for any fail-stop dependency in the
/// mail path: fail-open preserves delivery latency but admits the spam the
/// greylist would have deferred; fail-closed preserves the filter guarantee
/// but delays *all* mail, benign included. Both outcomes are counted
/// separately (`greylist.degraded.*`) so experiments can price them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradationMode {
    /// Accept recipients unchecked while the store is down.
    FailOpen,
    /// Tempfail recipients while the store is down (what Postfix does when
    /// a policy service dies) — the conservative default.
    #[default]
    FailClosed,
}

/// A message sitting in the victim mailbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredMessage {
    /// When the final dot was accepted.
    pub received_at: SimTime,
    /// The transaction envelope.
    pub envelope: Envelope,
    /// The message content.
    pub message: Message,
}

/// A receiving mail server: Postfix-like policy chain + mailbox + log.
///
/// Implements [`ServerPolicy`], so it plugs directly into
/// [`spamward_smtp::ServerSession`] / [`spamward_smtp::exchange`].
///
/// Filter order on RCPT: recipient validation → greylist (which itself
/// checks client whitelist, recipient whitelist, auto-whitelist, triplet).
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_greylist::{Greylist, GreylistConfig};
/// use spamward_mta::{ReceivingMta, RecipientPolicy};
///
/// let mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 10))
///     .with_recipients(RecipientPolicy::Domain("foo.net".into()))
///     .with_greylist(Greylist::new(GreylistConfig::default()));
/// assert_eq!(mta.hostname(), "mx.foo.net");
/// ```
#[derive(Debug)]
pub struct ReceivingMta {
    hostname: String,
    ip: Ipv4Addr,
    recipients: RecipientPolicy,
    reject_pregreeters: bool,
    greylist: Option<Greylist>,
    greylist_outage: Vec<FaultWindow>,
    remote_store_faulted: bool,
    degradation: DegradationMode,
    durability: DurabilityMode,
    /// Crash windows ([crash, restart) per window), sorted by time.
    crash_windows: Vec<FaultWindow>,
    /// Next unfired lifecycle edge: window `cursor / 2`, crash edge when
    /// even, restart edge when odd.
    crash_cursor: usize,
    /// The last durability checkpoint (a store snapshot), if one was taken.
    last_checkpoint: Option<String>,
    /// WAL text captured at the crash instant, awaiting replay at restart.
    pending_wal: Option<String>,
    /// Live store entries at the most recent crash instant.
    entries_at_crash: u64,
    crash_stats: CrashStats,
    mailbox: Vec<StoredMessage>,
    log: Vec<LogRecord>,
    stats: ReceiveStats,
    smtp_metrics: SessionMetrics,
    log_salt: u64,
}

impl ReceivingMta {
    /// Creates a catch-all server with no greylisting.
    pub fn new(hostname: &str, ip: Ipv4Addr) -> Self {
        // Salt the anonymized log by hostname so two servers' logs don't
        // join.
        let mut salt: u64 = 0x5bd1_e995;
        for b in hostname.bytes() {
            salt = salt.rotate_left(7) ^ u64::from(b);
        }
        ReceivingMta {
            hostname: hostname.to_owned(),
            ip,
            recipients: RecipientPolicy::AcceptAll,
            reject_pregreeters: false,
            greylist: None,
            greylist_outage: Vec::new(),
            remote_store_faulted: false,
            degradation: DegradationMode::default(),
            durability: DurabilityMode::default(),
            crash_windows: Vec::new(),
            crash_cursor: 0,
            last_checkpoint: None,
            pending_wal: None,
            entries_at_crash: 0,
            crash_stats: CrashStats::default(),
            mailbox: Vec::new(),
            log: Vec::new(),
            stats: ReceiveStats::default(),
            smtp_metrics: SessionMetrics::default(),
            log_salt: salt,
        }
    }

    /// Sets the deliverable-recipient policy.
    pub fn with_recipients(mut self, recipients: RecipientPolicy) -> Self {
        self.recipients = recipients;
        self
    }

    /// Enables greylisting.
    pub fn with_greylist(mut self, greylist: Greylist) -> Self {
        self.greylist = Some(greylist);
        if self.durability.keeps_wal() {
            if let Some(gl) = self.greylist.as_mut() {
                gl.enable_wal();
            }
        }
        self
    }

    /// Rejects clients that talk before the banner (postscreen-style
    /// early-talker filtering; a protocol-level sibling of greylisting
    /// that also exploits bot non-compliance).
    pub fn with_pregreet_rejection(mut self) -> Self {
        self.reject_pregreeters = true;
        self
    }

    /// Sets what happens to RCPTs while the greylist store is down
    /// (defaults to [`DegradationMode::FailClosed`]).
    pub fn with_degradation(mut self, mode: DegradationMode) -> Self {
        self.degradation = mode;
        self
    }

    /// Sets how greylist state survives a crash–restart cycle (defaults to
    /// [`DurabilityMode::Volatile`] — everything in memory is lost). Modes
    /// that keep a WAL turn logging on immediately, so every store
    /// mutation from here on is replayable.
    pub fn with_durability(mut self, mode: DurabilityMode) -> Self {
        self.durability = mode;
        if mode.keeps_wal() {
            if let Some(gl) = self.greylist.as_mut() {
                gl.enable_wal();
            }
        }
        self
    }

    /// Installs the windows during which this server is crashed
    /// ([`crate::MailWorld::install_faults`] calls this with the plan's
    /// [`spamward_net::FaultPlan::crash_windows_for`] windows for this
    /// hostname). Windows must be sorted by time and non-overlapping —
    /// the compiled plan's order.
    pub fn install_crash_schedule(&mut self, windows: Vec<FaultWindow>) {
        self.crash_windows = windows;
        self.crash_cursor = 0;
    }

    /// Whether a crash schedule is installed (not necessarily active right
    /// now). Gates the `mta.crash.*` / `greylist.recovery.*` metric
    /// exports, so crash-free runs keep their exact metric composition.
    pub fn has_crash_schedule(&self) -> bool {
        !self.crash_windows.is_empty()
    }

    /// Crash-lifecycle and recovery counters.
    pub fn crash_stats(&self) -> CrashStats {
        self.crash_stats
    }

    /// Whether the server is down at `t` — inside a crash window's
    /// `[crash, restart)` span.
    pub fn is_crashed_at(&self, t: SimTime) -> bool {
        self.crash_windows.iter().any(|w| w.contains(t))
    }

    /// The first crash instant strictly inside `(start, end]`, if any — an
    /// SMTP session in flight over that span is cut mid-dialogue.
    pub(crate) fn crash_during(&self, start: SimTime, end: SimTime) -> Option<SimTime> {
        self.crash_windows.iter().map(|w| w.from).find(|&at| start < at && at <= end)
    }

    /// Counts a connection refused while the server was down.
    pub(crate) fn note_refused_connection(&mut self) {
        self.crash_stats.refused_connections += 1;
    }

    /// Counts an in-flight session cut by a crash instant.
    pub(crate) fn note_session_dropped(&mut self) {
        self.crash_stats.sessions_dropped += 1;
    }

    /// Takes a durability checkpoint: snapshots the greylist store and
    /// truncates the WAL (every record up to here is now inside the
    /// snapshot). A no-op for [`DurabilityMode::Volatile`] servers,
    /// servers without a greylist, and servers that are *down* at `now` —
    /// a dead machine takes no checkpoints, and snapshotting the
    /// crash-reset store would clobber the good pre-crash checkpoint. The
    /// world's checkpoint timer calls this on a virtual-time schedule via
    /// [`crate::MailWorld::checkpoint_stores`].
    pub fn checkpoint(&mut self, now: SimTime) {
        if !self.durability.restores_checkpoint() || self.is_crashed_at(now) {
            return;
        }
        if let Some(gl) = self.greylist.as_mut() {
            self.last_checkpoint = Some(gl.snapshot());
            gl.clear_wal();
            self.crash_stats.checkpoints += 1;
        }
    }

    /// Advances the crash–restart lifecycle through every edge at or
    /// before `now`, in order, and returns the transitions fired.
    /// Idempotent per edge — the world polls lazily from the delivery
    /// path *and* from fault-boundary engine events, and each edge fires
    /// exactly once, whichever poll reaches it first.
    pub(crate) fn poll_crash(&mut self, now: SimTime) -> Vec<CrashTransition> {
        let mut fired = Vec::new();
        while self.crash_cursor < self.crash_windows.len() * 2 {
            let window = self.crash_windows[self.crash_cursor / 2];
            let crash_edge = self.crash_cursor.is_multiple_of(2);
            let edge = if crash_edge { window.from } else { window.until };
            if edge > now {
                break;
            }
            fired.push(if crash_edge { self.crash() } else { self.restart(edge) });
            self.crash_cursor += 1;
        }
        fired
    }

    /// The crash instant: the in-memory greylist database dies. The WAL
    /// tail is captured first — it models the on-disk log, which survives
    /// the process.
    fn crash(&mut self) -> CrashTransition {
        self.crash_stats.crashes += 1;
        let entries = self.greylist.as_ref().map_or(0, |g| g.store().len()) as u64;
        self.entries_at_crash = entries;
        if let Some(gl) = self.greylist.as_mut() {
            self.pending_wal = gl.wal().map(|w| w.text().to_owned());
            gl.reset();
        }
        CrashTransition::Crashed { entries_in_memory: entries }
    }

    /// The restart instant: rebuild greylist state per the durability
    /// mode, then take a fresh checkpoint of the recovered state so a
    /// *second* crash recovers from here, not from the stale pre-crash
    /// checkpoint.
    fn restart(&mut self, at: SimTime) -> CrashTransition {
        self.crash_stats.restarts += 1;
        let mut restored = 0u64;
        let mut replayed = 0u64;
        let mut torn = 0u64;
        let wal_text = self.pending_wal.take();
        if let Some(gl) = self.greylist.as_mut() {
            if self.durability.restores_checkpoint() {
                if let Some(cp) = self.last_checkpoint.as_deref() {
                    // A checkpoint that no longer parses is as good as no
                    // checkpoint: a failed restore leaves the store empty,
                    // as the crash left it (the loss lands in `entries_lost`).
                    if gl.restore(cp).is_ok() {
                        restored = gl.store().len() as u64;
                    }
                }
            }
            if self.durability.keeps_wal() {
                if let Some(text) = wal_text.as_deref() {
                    // Same degradation: an unreplayable log contributes
                    // nothing beyond what already parsed.
                    if let Ok(outcome) = gl.replay_wal(text) {
                        replayed = outcome.applied;
                        torn = outcome.torn_skipped;
                    }
                }
            }
        }
        let recovered = self.greylist.as_ref().map_or(0, |g| g.store().len()) as u64;
        let lost = self.entries_at_crash.saturating_sub(recovered);
        self.crash_stats.entries_restored += restored;
        self.crash_stats.wal_records_replayed += replayed;
        self.crash_stats.wal_torn_skipped += torn;
        self.crash_stats.entries_lost += lost;
        self.checkpoint(at);
        CrashTransition::Restarted { restored, replayed, torn, lost }
    }

    /// Installs the windows during which the greylist store is unavailable
    /// ([`crate::MailWorld::install_faults`] calls this with the plan's
    /// `greylist_down` windows).
    pub fn set_greylist_outage(&mut self, windows: Vec<FaultWindow>) {
        self.greylist_outage = windows;
    }

    /// Routes greylist-store fault windows to the right layer for the
    /// active backend. A [`spamward_greylist::StoreBackend::Remote`]
    /// backend takes them as its own outage windows (lookups fail with
    /// `StoreUnavailable`, which flows through the same degradation path);
    /// the in-process backend has no network hop to fault, so the windows
    /// stay ambient MTA state.
    pub fn install_greylist_faults(&mut self, windows: Vec<FaultWindow>) {
        let outages: Vec<(SimTime, SimTime)> = windows.iter().map(|w| (w.from, w.until)).collect();
        let routed = self.greylist.as_mut().is_some_and(|g| g.install_remote_faults(outages));
        if routed {
            self.remote_store_faulted = !windows.is_empty();
        } else {
            self.set_greylist_outage(windows);
        }
    }

    /// Whether an outage schedule is installed (not necessarily active
    /// right now). Gates the `greylist.degraded.*` metric exports.
    pub fn has_greylist_outage(&self) -> bool {
        !self.greylist_outage.is_empty() || self.remote_store_faulted
    }

    /// The server's hostname.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// The address the server listens on.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// The stored messages.
    pub fn mailbox(&self) -> &[StoredMessage] {
        &self.mailbox
    }

    /// The anonymized event log.
    pub fn log(&self) -> &[LogRecord] {
        &self.log
    }

    /// Renders the full anonymized log as text (one record per line).
    pub fn log_text(&self) -> String {
        let mut out = String::new();
        for record in &self.log {
            // Writing to a `String` never fails.
            let _ = writeln!(out, "{record}");
        }
        out
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ReceiveStats {
        self.stats
    }

    /// Protocol counters accumulated over every SMTP session this server
    /// handled (each finished session is folded in via
    /// [`ReceivingMta::absorb_smtp`]).
    pub fn smtp_metrics(&self) -> &SessionMetrics {
        &self.smtp_metrics
    }

    /// Folds a finished SMTP session's counters into this server's running
    /// totals. [`crate::MailWorld::attempt_delivery`] calls this after every
    /// exchange.
    pub fn absorb_smtp(&mut self, session: &SessionMetrics) {
        self.smtp_metrics.merge(session);
    }

    /// The greylist engine, when enabled.
    pub fn greylist(&self) -> Option<&Greylist> {
        self.greylist.as_ref()
    }

    /// Mutable access to the greylist engine (e.g. to run maintenance).
    pub fn greylist_mut(&mut self) -> Option<&mut Greylist> {
        self.greylist.as_mut()
    }

    fn log_event(&mut self, at: SimTime, event: LogEvent, key: &TripletKey) {
        self.log.push(LogRecord { at, event, key: anonymize(self.log_salt, key) });
    }

    /// Answers a RCPT while the greylist store is unreachable — either an
    /// ambient outage window (in-process backends) or a store lookup that
    /// came back unavailable (remote backend). Fail-open admits the
    /// recipient unchecked (no triplet is recorded — the store is
    /// unreachable); fail-closed defers like a greylist hit would, but
    /// with its own counter and reply, so the two 4xx populations stay
    /// distinguishable in the logs and metrics.
    fn degraded_rcpt(&mut self) -> PolicyDecision {
        match self.degradation {
            DegradationMode::FailOpen => {
                self.stats.greylist_failed_open += 1;
                self.stats.rcpt_passed += 1;
                PolicyDecision::Accept
            }
            DegradationMode::FailClosed => {
                self.stats.greylist_failed_closed += 1;
                PolicyDecision::TempFail(Reply::single(
                    codes::MAILBOX_UNAVAILABLE_TRANSIENT,
                    "4.3.5 greylist store unavailable, try again later",
                ))
            }
        }
    }
}

impl ServerPolicy for ReceivingMta {
    fn on_pregreet(&mut self, _now: SimTime, _client_ip: Ipv4Addr) -> PolicyDecision {
        if self.reject_pregreeters {
            self.stats.pregreet_rejected += 1;
            PolicyDecision::Reject(Reply::single(
                codes::TRANSACTION_FAILED,
                "5.5.1 protocol error: talked too soon",
            ))
        } else {
            PolicyDecision::Accept
        }
    }

    fn on_rcpt(&mut self, now: SimTime, tx: &Transaction, rcpt: &EmailAddress) -> PolicyDecision {
        // 1. Recipient validation happens before greylisting.
        if !self.recipients.accepts(rcpt) {
            self.stats.rcpt_unknown += 1;
            return PolicyDecision::Reject(Reply::no_such_user());
        }
        // 2. Greylisting, when configured.
        let Some(greylist) = self.greylist.as_mut() else {
            self.stats.rcpt_passed += 1;
            return PolicyDecision::Accept;
        };
        // 2a. If the triplet store is down right now (ambient outage
        // window — the in-process backends' fault model), the degradation
        // policy answers instead of the greylist.
        if self.greylist_outage.iter().any(|w| w.contains(now)) {
            return self.degraded_rcpt();
        }
        let sender = tx.mail_from.as_ref().unwrap_or(&ReversePath::Null);
        // 2b. The decision engine touches the store backend; a remote
        // backend inside an outage window surfaces `StoreUnavailable`,
        // which lands in the same degradation path as an ambient outage.
        let key = greylist.key_for(tx.client_ip, sender, rcpt);
        let verdict = greylist.try_check_with_rdns(
            now,
            tx.client_ip,
            tx.client_rdns.as_deref(),
            sender,
            rcpt,
        );
        match verdict {
            Err(_) => self.degraded_rcpt(),
            Ok(Decision::Pass(reason)) => {
                self.stats.rcpt_passed += 1;
                let event = match reason {
                    PassReason::DelayElapsed => LogEvent::PassedGreylist,
                    PassReason::TripletKnown => LogEvent::PassedGreylist,
                    _ => LogEvent::Whitelisted,
                };
                self.log_event(now, event, &key);
                PolicyDecision::Accept
            }
            Ok(Decision::Greylisted { retry_after }) => {
                self.stats.rcpt_greylisted += 1;
                self.log_event(now, LogEvent::Greylisted, &key);
                PolicyDecision::TempFail(Reply::greylisted(retry_after.as_secs()))
            }
        }
    }

    fn on_accepted(&mut self, now: SimTime, env: &Envelope, msg: &Message) {
        self.stats.messages_accepted += 1;
        // Log one accept entry per recipient so per-triplet delivery delays
        // can be reconstructed from the anonymized log alone. Accept
        // entries use the engine's key policy so they join with the defer
        // entries; servers without a greylist log default full-triplet keys.
        let keys: Vec<TripletKey> = env
            .recipients()
            .iter()
            .map(|rcpt| match self.greylist.as_ref() {
                Some(g) => g.key_for(env.client_ip(), env.mail_from(), rcpt),
                None => TripletKey::new(env.client_ip(), env.mail_from(), rcpt, 24),
            })
            .collect();
        for key in keys {
            self.log_event(now, LogEvent::Accepted, &key);
        }
        self.mailbox.push(StoredMessage {
            received_at: now,
            envelope: env.clone(),
            message: msg.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_analysis::log::parse_log_line;
    use spamward_greylist::GreylistConfig;
    use spamward_sim::SimDuration;
    use spamward_smtp::{exchange, ClientSession, Dialect, ServerSession};

    fn envelope(rcpt: &str) -> Envelope {
        Envelope::builder()
            .client_ip(Ipv4Addr::new(203, 0, 113, 9))
            .helo("client.example")
            .mail_from("sender@relay.example".parse::<EmailAddress>().unwrap())
            .rcpt(rcpt.parse().unwrap())
            .build()
    }

    fn msg() -> Message {
        Message::builder().header("Subject", "t").body("b").build()
    }

    fn run_attempt(
        mta: &mut ReceivingMta,
        rcpt: &str,
        now: SimTime,
    ) -> spamward_smtp::DeliveryOutcome {
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), envelope(rcpt), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let (outcome, _) = exchange(&mut client, &mut server, mta, now);
        outcome
    }

    #[test]
    fn recipient_policies() {
        let any = RecipientPolicy::AcceptAll;
        assert!(any.accepts(&"x@anything.example".parse().unwrap()));
        let dom = RecipientPolicy::Domain("Foo.NET".into());
        assert!(dom.accepts(&"x@foo.net".parse().unwrap()));
        assert!(!dom.accepts(&"x@bar.net".parse().unwrap()));
        let mut set = HashSet::new();
        set.insert("alice@foo.net".to_owned());
        let list = RecipientPolicy::List(set);
        assert!(list.accepts(&"Alice@FOO.net".parse().unwrap()));
        assert!(!list.accepts(&"bob@foo.net".parse().unwrap()));
    }

    #[test]
    fn unknown_recipient_rejected_before_greylist() {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_recipients(RecipientPolicy::Domain("foo.net".into()))
            .with_greylist(Greylist::new(GreylistConfig::default()));
        let out = run_attempt(&mut mta, "x@other.example", SimTime::ZERO);
        assert!(matches!(out, spamward_smtp::DeliveryOutcome::PermFailed { .. }));
        assert_eq!(mta.stats().rcpt_unknown, 1);
        // The greylist must not have been consulted (no triplet created).
        assert_eq!(mta.greylist().unwrap().store().len(), 0);
    }

    #[test]
    fn greylist_defers_then_accepts() {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300))));
        let t0 = SimTime::ZERO;
        let out = run_attempt(&mut mta, "u@foo.net", t0);
        assert!(out.is_retryable());
        assert_eq!(mta.mailbox().len(), 0);
        assert_eq!(mta.stats().rcpt_greylisted, 1);

        let t1 = t0 + SimDuration::from_secs(301);
        let out = run_attempt(&mut mta, "u@foo.net", t1);
        assert!(out.is_delivered());
        assert_eq!(mta.mailbox().len(), 1);
        assert_eq!(mta.stats().messages_accepted, 1);
        assert_eq!(mta.mailbox()[0].received_at, t1);
    }

    #[test]
    fn no_greylist_accepts_immediately() {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1));
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::ZERO);
        assert!(out.is_delivered());
        assert_eq!(mta.stats().rcpt_passed, 1);
    }

    #[test]
    fn log_records_defer_and_accept_with_same_key() {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300))));
        run_attempt(&mut mta, "u@foo.net", SimTime::ZERO);
        run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(400));
        let log = mta.log();
        assert_eq!(log.len(), 3); // greylisted, passed, accepted
        assert_eq!(log[0].event, LogEvent::Greylisted);
        assert_eq!(log[1].event, LogEvent::PassedGreylist);
        assert_eq!(log[2].event, LogEvent::Accepted);
        assert_eq!(log[0].key, log[1].key);
        assert_eq!(log[0].key, log[2].key);
        // Text form parses back.
        let text = mta.log_text();
        let parsed: Result<Vec<_>, _> = text.lines().map(parse_log_line).collect();
        assert_eq!(parsed.as_deref(), Ok(log));
        assert_eq!(
            text,
            "0.000000 greylisted key=e8db77b1bc57eeed\n\
             400.000000 passed key=e8db77b1bc57eeed\n\
             400.000000 accepted key=e8db77b1bc57eeed\n"
        );
    }

    #[test]
    fn whitelisted_pass_logged_as_whitelisted() {
        let mut cfg = GreylistConfig::default();
        cfg.whitelist_recipients.add_local_part("postmaster");
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(cfg));
        let out = run_attempt(&mut mta, "postmaster@foo.net", SimTime::ZERO);
        assert!(out.is_delivered());
        assert_eq!(mta.log()[0].event, LogEvent::Whitelisted);
        assert_eq!(
            mta.log_text(),
            "0.000000 whitelisted key=cb1e75c0df338461\n\
             0.000000 accepted key=cb1e75c0df338461\n"
        );
    }

    #[test]
    fn pregreet_rejection_stops_early_talker_bots() {
        let mut mta =
            ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1)).with_pregreet_rejection();
        // A bot dialect talks before the banner...
        let mut client =
            ClientSession::new(Dialect::minimal_bot("bot"), envelope("u@foo.net"), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let (outcome, transcript) = exchange(&mut client, &mut server, &mut mta, SimTime::ZERO);
        assert!(!outcome.is_delivered());
        assert!(!outcome.is_retryable(), "pregreet rejection is permanent");
        assert_eq!(mta.stats().pregreet_rejected, 1);
        assert!(transcript.client_lines().any(|l| l.contains("before banner")));

        // ...while a patient MTA sails through.
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::ZERO);
        assert!(out.is_delivered());
        assert_eq!(mta.stats().pregreet_rejected, 1);
    }

    #[test]
    fn fixed_policy_replies_render_pinned_bytes() {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300))))
            .with_pregreet_rejection();
        mta.set_greylist_outage(vec![FaultWindow::new(SimTime::ZERO, SimTime::from_secs(100))]);
        let client_ip = Ipv4Addr::new(203, 0, 113, 9);
        let PolicyDecision::Reject(pregreet) = mta.on_pregreet(SimTime::ZERO, client_ip) else {
            panic!("pregreet rejection is on");
        };
        assert_eq!(pregreet.to_wire(), "554 5.5.1 protocol error: talked too soon\r\n");
        assert_eq!(pregreet.to_string(), "554 5.5.1 protocol error: talked too soon");
        let tx = Transaction {
            client_ip,
            client_rdns: None,
            helo: "relay.example".into(),
            mail_from: Some(ReversePath::Address("sender@relay.example".parse().unwrap())),
            recipients: Vec::new(),
        };
        let rcpt: EmailAddress = "u@foo.net".parse().unwrap();
        let PolicyDecision::TempFail(degraded) = mta.on_rcpt(SimTime::ZERO, &tx, &rcpt) else {
            panic!("a store outage fails closed by default");
        };
        assert_eq!(degraded.to_wire(), "450 4.3.5 greylist store unavailable, try again later\r\n");
        assert_eq!(degraded.to_string(), "450 4.3.5 greylist store unavailable, try again later");
    }

    #[test]
    fn greylist_store_outage_fail_closed_defers_with_its_own_counter() {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300))));
        mta.set_greylist_outage(vec![FaultWindow::new(
            SimTime::from_secs(100),
            SimTime::from_secs(200),
        )]);
        // During the outage: tempfail, but NOT counted as a greylist defer,
        // and no triplet is recorded (the store is unreachable).
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(150));
        assert!(out.is_retryable());
        assert!(!out.is_delivered());
        assert_eq!(mta.stats().greylist_failed_closed, 1);
        assert_eq!(mta.stats().rcpt_greylisted, 0);
        assert_eq!(mta.greylist().unwrap().store().len(), 0);
        // After the outage the ordinary greylist takes over again.
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(250));
        assert!(out.is_retryable());
        assert_eq!(mta.stats().rcpt_greylisted, 1);
        assert_eq!(mta.greylist().unwrap().store().len(), 1);
    }

    #[test]
    fn greylist_store_outage_fail_open_admits_unchecked() {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300))))
            .with_degradation(DegradationMode::FailOpen);
        mta.set_greylist_outage(vec![FaultWindow::new(SimTime::ZERO, SimTime::from_secs(100))]);
        // A first-contact triplet that the greylist would have deferred
        // sails straight into the mailbox.
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(10));
        assert!(out.is_delivered());
        assert_eq!(mta.stats().greylist_failed_open, 1);
        assert_eq!(mta.mailbox().len(), 1);
        assert_eq!(mta.greylist().unwrap().store().len(), 0, "store was down, nothing recorded");
        // Outside the window the greylist is back in charge.
        let out = run_attempt(&mut mta, "v@foo.net", SimTime::from_secs(150));
        assert!(!out.is_delivered());
        assert_eq!(mta.stats().rcpt_greylisted, 1);
    }

    #[test]
    fn remote_backend_outage_routes_through_degradation() {
        use spamward_greylist::{RemoteStore, StoreBackend};
        let greylist = Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300)))
            .with_backend(StoreBackend::Remote(RemoteStore::new(SimDuration::from_millis(2))));
        let mut mta =
            ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1)).with_greylist(greylist);
        mta.install_greylist_faults(vec![FaultWindow::new(
            SimTime::from_secs(100),
            SimTime::from_secs(200),
        )]);
        assert!(mta.has_greylist_outage(), "routed remote faults still gate degraded metrics");
        // Inside the window the *store lookup* fails (protocol-level, not
        // ambient state) and lands in the same fail-closed path.
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(150));
        assert!(out.is_retryable());
        assert_eq!(mta.stats().greylist_failed_closed, 1);
        assert_eq!(mta.stats().rcpt_greylisted, 0);
        assert_eq!(mta.greylist().unwrap().store().len(), 0);
        // Outside the window the remote store answers normally.
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(250));
        assert!(out.is_retryable());
        assert_eq!(mta.stats().rcpt_greylisted, 1);
        assert_eq!(mta.greylist().unwrap().store().len(), 1);
    }

    #[test]
    fn in_process_backend_faults_fall_back_to_ambient_windows() {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300))));
        mta.install_greylist_faults(vec![FaultWindow::new(
            SimTime::from_secs(100),
            SimTime::from_secs(200),
        )]);
        assert!(mta.has_greylist_outage());
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(150));
        assert!(out.is_retryable());
        assert_eq!(mta.stats().greylist_failed_closed, 1, "ambient window must still fire");
    }

    #[test]
    fn no_outage_schedule_means_no_degradation_path() {
        let mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(GreylistConfig::default()));
        assert!(!mta.has_greylist_outage());
    }

    /// A greylisting server with the given durability and one crash window
    /// [100 s, 200 s).
    fn crashy_mta(durability: DurabilityMode) -> ReceivingMta {
        let mut mta = ReceivingMta::new("mx.foo.net", Ipv4Addr::new(192, 0, 2, 1))
            .with_greylist(Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300))))
            .with_durability(durability);
        mta.install_crash_schedule(vec![FaultWindow::new(
            SimTime::from_secs(100),
            SimTime::from_secs(200),
        )]);
        mta
    }

    #[test]
    fn volatile_restart_loses_the_store() {
        let mut mta = crashy_mta(DurabilityMode::Volatile);
        assert!(mta.has_crash_schedule());
        assert!(mta.is_crashed_at(SimTime::from_secs(150)));
        assert!(!mta.is_crashed_at(SimTime::from_secs(200)), "restart instant is up again");
        run_attempt(&mut mta, "u@foo.net", SimTime::ZERO);
        assert_eq!(mta.greylist().unwrap().store().len(), 1);

        let fired = mta.poll_crash(SimTime::from_secs(250));
        assert_eq!(fired.len(), 2, "crash edge and restart edge both fire");
        assert_eq!(fired[0], CrashTransition::Crashed { entries_in_memory: 1 });
        assert_eq!(
            fired[1],
            CrashTransition::Restarted { restored: 0, replayed: 0, torn: 0, lost: 1 }
        );
        assert_eq!(mta.greylist().unwrap().store().len(), 0, "volatile crash loses everything");
        let stats = mta.crash_stats();
        assert_eq!((stats.crashes, stats.restarts, stats.entries_lost), (1, 1, 1));

        // The pre-crash triplet is gone: its retry is first contact again,
        // deferred even though the original delay had elapsed.
        let out = run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(400));
        assert!(out.is_retryable(), "lost triplet means the retry is re-greylisted");
        // Polling again fires nothing — edges are consumed exactly once.
        assert!(mta.poll_crash(SimTime::from_secs(900)).is_empty());
    }

    #[test]
    fn snapshot_restart_restores_the_checkpoint_but_loses_the_tail() {
        let mut mta = crashy_mta(DurabilityMode::Snapshot);
        run_attempt(&mut mta, "u@foo.net", SimTime::ZERO);
        mta.checkpoint(SimTime::from_secs(5));
        // A second triplet lands after the checkpoint — it is the tail the
        // snapshot-only mode loses.
        run_attempt(&mut mta, "v@foo.net", SimTime::from_secs(10));
        assert_eq!(mta.greylist().unwrap().store().len(), 2);

        let fired = mta.poll_crash(SimTime::from_secs(250));
        assert_eq!(
            fired[1],
            CrashTransition::Restarted { restored: 1, replayed: 0, torn: 0, lost: 1 }
        );
        assert_eq!(mta.greylist().unwrap().store().len(), 1);
        // The checkpointed triplet kept its first-seen time: its retry
        // passes; the lost tail triplet is deferred from scratch.
        assert!(run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(400)).is_delivered());
        assert!(run_attempt(&mut mta, "v@foo.net", SimTime::from_secs(400)).is_retryable());
        let stats = mta.crash_stats();
        assert_eq!(stats.entries_restored, 1);
        assert_eq!(stats.entries_lost, 1);
        // Periodic tick + the restart's re-baselining checkpoint.
        assert_eq!(stats.checkpoints, 2);
    }

    #[test]
    fn snapshot_plus_wal_restart_loses_nothing() {
        let mut mta = crashy_mta(DurabilityMode::SnapshotPlusWal);
        mta.install_crash_schedule(vec![
            FaultWindow::new(SimTime::from_secs(100), SimTime::from_secs(200)),
            FaultWindow::new(SimTime::from_secs(500), SimTime::from_secs(600)),
        ]);
        run_attempt(&mut mta, "u@foo.net", SimTime::ZERO);
        mta.checkpoint(SimTime::from_secs(5));
        run_attempt(&mut mta, "v@foo.net", SimTime::from_secs(10));

        let fired = mta.poll_crash(SimTime::from_secs(250));
        assert_eq!(
            fired[1],
            CrashTransition::Restarted { restored: 1, replayed: 1, torn: 0, lost: 0 }
        );
        assert_eq!(mta.greylist().unwrap().store().len(), 2, "wal replay recovers the tail");
        assert!(run_attempt(&mut mta, "u@foo.net", SimTime::from_secs(400)).is_delivered());
        assert!(run_attempt(&mut mta, "v@foo.net", SimTime::from_secs(400)).is_delivered());

        // A mutation after the first restart, then a second crash: the
        // restart re-baselined the checkpoint, so nothing is lost here
        // either — not even state that predates the *first* crash.
        run_attempt(&mut mta, "w@foo.net", SimTime::from_secs(450));
        let fired = mta.poll_crash(SimTime::from_secs(700));
        assert!(
            matches!(fired[1], CrashTransition::Restarted { lost: 0, .. }),
            "second crash recovers from the re-baselined checkpoint: {fired:?}"
        );
        assert_eq!(mta.greylist().unwrap().store().len(), 3);
        assert_eq!(mta.crash_stats().entries_lost, 0);
    }

    #[test]
    fn checkpoints_are_skipped_while_the_server_is_down() {
        let mut mta = crashy_mta(DurabilityMode::Snapshot);
        run_attempt(&mut mta, "u@foo.net", SimTime::ZERO);
        mta.checkpoint(SimTime::from_secs(5));
        mta.poll_crash(SimTime::from_secs(100));
        assert_eq!(mta.greylist().unwrap().store().len(), 0, "crash reset the live store");
        // A periodic tick landing mid-downtime must not snapshot the reset
        // store over the good pre-crash checkpoint.
        mta.checkpoint(SimTime::from_secs(150));
        mta.poll_crash(SimTime::from_secs(200));
        assert_eq!(mta.greylist().unwrap().store().len(), 1, "pre-crash checkpoint survived");
        assert_eq!(mta.crash_stats().entries_restored, 1);
    }

    #[test]
    fn crash_during_finds_instants_inside_a_session_span() {
        let mta = crashy_mta(DurabilityMode::Volatile);
        let t = SimTime::from_secs;
        assert_eq!(mta.crash_during(t(90), t(110)), Some(t(100)));
        assert_eq!(mta.crash_during(t(100), t(110)), None, "strictly after start");
        assert_eq!(mta.crash_during(t(90), t(100)), Some(t(100)), "inclusive end");
        assert_eq!(mta.crash_during(t(30), t(40)), None);
        assert!(!ReceivingMta::new("x", Ipv4Addr::new(192, 0, 2, 2)).has_crash_schedule());
    }
}

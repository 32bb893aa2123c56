//! The receiving-side SMTP state machine.

use crate::address::{EmailAddress, ReversePath};
use crate::command::Command;
use crate::envelope::Envelope;
use crate::extensions::Capabilities;
use crate::message::Message;
use crate::metrics::SessionMetrics;
use crate::reply::{codes, Reply};
use spamward_sim::SimTime;
use std::net::Ipv4Addr;

/// Where a session currently is in the RFC 5321 command sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// TCP established, banner not yet sent.
    Connected,
    /// Banner sent, waiting for HELO/EHLO.
    AwaitGreeting,
    /// Greeted; MAIL may start a transaction.
    Ready,
    /// MAIL accepted; waiting for RCPT.
    MailGiven,
    /// At least one RCPT accepted; DATA may begin.
    RcptGiven,
    /// 354 sent; the body is being received.
    ReadingData,
    /// QUIT (or fatal policy action) ended the session.
    Closed,
}

/// The in-progress transaction exposed to policy hooks.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// The connecting client's address.
    pub client_ip: Ipv4Addr,
    /// The client's reverse-DNS name, when the server looked one up at
    /// connect time (name-based whitelists key on this).
    pub client_rdns: Option<String>,
    /// The greeting argument (empty until HELO/EHLO).
    pub helo: String,
    /// The envelope sender, once MAIL was issued.
    pub mail_from: Option<ReversePath>,
    /// Recipients accepted so far.
    pub recipients: Vec<EmailAddress>,
}

impl Transaction {
    fn new(client_ip: Ipv4Addr) -> Self {
        Transaction {
            client_ip,
            client_rdns: None,
            helo: String::new(),
            mail_from: None,
            recipients: Vec::new(),
        }
    }

    fn reset_mail(&mut self) {
        self.mail_from = None;
        self.recipients.clear();
    }
}

/// What a policy hook decides about the current protocol step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyDecision {
    /// Let the step proceed.
    Accept,
    /// Answer with a transient 4xx — the greylisting path.
    TempFail(Reply),
    /// Answer with a permanent 5xx.
    Reject(Reply),
}

impl PolicyDecision {
    fn into_reply(self) -> Option<Reply> {
        match self {
            PolicyDecision::Accept => None,
            PolicyDecision::TempFail(r) | PolicyDecision::Reject(r) => Some(r),
        }
    }
}

/// The pluggable policy a receiving MTA wires into its sessions.
///
/// Every hook defaults to [`PolicyDecision::Accept`], so a policy only
/// overrides the stages it cares about (greylisting hooks `on_rcpt`;
/// recipient validation hooks it too; a DNSBL would hook `on_connect`).
pub trait ServerPolicy {
    /// Called before the banner; rejecting here yields a 4xx/5xx banner.
    fn on_connect(&mut self, _now: SimTime, _client_ip: Ipv4Addr) -> PolicyDecision {
        PolicyDecision::Accept
    }

    /// Called when the client starts talking *before* the banner arrived
    /// (postscreen-style early-talker detection). Fire-and-forget bots are
    /// the main population that trips this.
    fn on_pregreet(&mut self, _now: SimTime, _client_ip: Ipv4Addr) -> PolicyDecision {
        PolicyDecision::Accept
    }

    /// Called after HELO/EHLO.
    fn on_helo(&mut self, _now: SimTime, _tx: &Transaction) -> PolicyDecision {
        PolicyDecision::Accept
    }

    /// Called after MAIL FROM.
    fn on_mail(&mut self, _now: SimTime, _tx: &Transaction) -> PolicyDecision {
        PolicyDecision::Accept
    }

    /// Called for each RCPT TO — the stage where pre-acceptance filters
    /// (recipient validation, whitelists, greylisting) act.
    fn on_rcpt(
        &mut self,
        _now: SimTime,
        _tx: &Transaction,
        _rcpt: &EmailAddress,
    ) -> PolicyDecision {
        PolicyDecision::Accept
    }

    /// Called with the complete message after the final dot; rejecting here
    /// is a post-acceptance (content) filter.
    fn on_message(&mut self, _now: SimTime, _env: &Envelope, _msg: &Message) -> PolicyDecision {
        PolicyDecision::Accept
    }

    /// Notification that a message was accepted and queued for delivery.
    fn on_accepted(&mut self, _now: SimTime, _env: &Envelope, _msg: &Message) {}
}

/// A no-op policy accepting everything (open relay — test use only).
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl ServerPolicy for AcceptAll {}

/// The receiving-side state machine for one TCP session.
///
/// Drive it with [`ServerSession::open`] once, then [`ServerSession::handle`]
/// per command (and [`ServerSession::handle_data_body`] for the body after a
/// 354). The session enforces RFC 5321 command sequencing itself; policy
/// hooks only see well-ordered events.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_smtp::{AcceptAll, Command, ServerSession};
/// use spamward_sim::SimTime;
///
/// let mut policy = AcceptAll;
/// let mut s = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
/// let now = SimTime::ZERO;
/// assert_eq!(s.open(now, &mut policy).code(), 220);
/// assert_eq!(s.handle(now, &Command::parse("HELO bot.local"), &mut policy).code(), 250);
/// ```
#[derive(Debug)]
pub struct ServerSession {
    hostname: String,
    state: SessionState,
    tx: Transaction,
    capabilities: Capabilities,
    /// Whether the current greeting was EHLO (extensions negotiated).
    esmtp: bool,
    /// Completed envelopes/messages this session (a session can carry
    /// several transactions).
    accepted: Vec<(Envelope, Message)>,
    /// Protocol counters for this session (commands, reply classes,
    /// dialect violations); absorbed by the owning MTA when the session
    /// ends.
    metrics: SessionMetrics,
}

impl ServerSession {
    /// Creates a session for a client connecting from `client_ip`.
    pub fn new(hostname: &str, client_ip: Ipv4Addr) -> Self {
        ServerSession {
            hostname: hostname.to_owned(),
            state: SessionState::Connected,
            tx: Transaction::new(client_ip),
            capabilities: Capabilities::default(),
            esmtp: false,
            accepted: Vec::new(),
            metrics: SessionMetrics::default(),
        }
    }

    /// Replaces the advertised extension set.
    pub fn with_capabilities(mut self, capabilities: Capabilities) -> Self {
        self.capabilities = capabilities;
        self
    }

    /// Records the client's reverse-DNS name (servers resolve PTR at
    /// connect time; policies see it on the transaction).
    pub fn with_client_rdns(mut self, rdns: Option<String>) -> Self {
        self.tx.client_rdns = rdns;
        self
    }

    /// The session's current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Whether the session has ended.
    pub fn is_closed(&self) -> bool {
        self.state == SessionState::Closed
    }

    /// Envelopes and messages accepted during this session.
    pub fn accepted(&self) -> &[(Envelope, Message)] {
        &self.accepted
    }

    /// The session's protocol counters so far.
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// Sends the banner (or a policy rejection banner) for a client that
    /// *talked before the banner* — runs the pregreet hook first.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn open_pregreeted(&mut self, now: SimTime, policy: &mut dyn ServerPolicy) -> Reply {
        assert_eq!(self.state, SessionState::Connected, "open() called twice");
        if let Some(reply) = policy.on_pregreet(now, self.tx.client_ip).into_reply() {
            self.state = SessionState::Closed;
            self.metrics.on_reply(&reply);
            return reply;
        }
        self.open(now, policy)
    }

    /// Sends the banner (or a policy rejection banner).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn open(&mut self, now: SimTime, policy: &mut dyn ServerPolicy) -> Reply {
        assert_eq!(self.state, SessionState::Connected, "open() called twice");
        let reply = match policy.on_connect(now, self.tx.client_ip).into_reply() {
            Some(reply) => {
                self.state = SessionState::Closed;
                reply
            }
            None => {
                self.state = SessionState::AwaitGreeting;
                Reply::banner(&self.hostname)
            }
        };
        self.metrics.on_reply(&reply);
        reply
    }

    /// Handles one client command.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ServerSession::open`], after the session
    /// closed, or while a DATA body is expected.
    pub fn handle(&mut self, now: SimTime, cmd: &Command, policy: &mut dyn ServerPolicy) -> Reply {
        assert!(
            !matches!(
                self.state,
                SessionState::Connected | SessionState::Closed | SessionState::ReadingData
            ),
            "handle() called in state {:?}",
            self.state
        );
        self.metrics.on_command(cmd);
        let reply = self.dispatch(now, cmd, policy);
        self.metrics.on_reply(&reply);
        reply
    }

    fn dispatch(&mut self, now: SimTime, cmd: &Command, policy: &mut dyn ServerPolicy) -> Reply {
        match cmd {
            Command::Helo { domain } | Command::Ehlo { domain } => {
                self.esmtp = matches!(cmd, Command::Ehlo { .. });
                self.tx.helo = domain.clone();
                self.tx.reset_mail();
                match policy.on_helo(now, &self.tx).into_reply() {
                    Some(r) => r,
                    None => {
                        self.state = SessionState::Ready;
                        if self.esmtp {
                            let capabilities = self.capabilities.ehlo_lines();
                            let mut lines = Vec::with_capacity(1 + capabilities.len());
                            lines.push(format!("{} Hello {}", self.hostname, domain).into());
                            lines.extend(capabilities);
                            Reply::new(codes::OK, lines)
                        } else {
                            Reply::hello(&self.hostname, domain)
                        }
                    }
                }
            }
            Command::MailFrom { path, declared_size } => {
                if !matches!(self.state, SessionState::Ready) {
                    return Reply::bad_sequence();
                }
                if let (Some(limit), Some(declared)) = (self.capabilities.size_limit, declared_size)
                {
                    if *declared > limit {
                        return Reply::single(
                            codes::SIZE_EXCEEDED,
                            "5.3.4 Message size exceeds fixed maximum message size",
                        );
                    }
                }
                self.tx.mail_from = Some(path.clone());
                match policy.on_mail(now, &self.tx).into_reply() {
                    Some(r) => {
                        self.tx.reset_mail();
                        r
                    }
                    None => {
                        self.state = SessionState::MailGiven;
                        Reply::ok()
                    }
                }
            }
            Command::RcptTo { address } => {
                if !matches!(self.state, SessionState::MailGiven | SessionState::RcptGiven) {
                    return Reply::bad_sequence();
                }
                match policy.on_rcpt(now, &self.tx, address).into_reply() {
                    Some(r) => r,
                    None => {
                        self.tx.recipients.push(address.clone());
                        self.state = SessionState::RcptGiven;
                        Reply::ok()
                    }
                }
            }
            Command::Data => {
                if self.state != SessionState::RcptGiven {
                    return Reply::bad_sequence();
                }
                self.state = SessionState::ReadingData;
                Reply::start_mail_input()
            }
            Command::Rset => {
                self.tx.reset_mail();
                if self.state != SessionState::AwaitGreeting {
                    self.state = SessionState::Ready;
                }
                Reply::ok()
            }
            Command::Noop => Reply::ok(),
            Command::Quit => {
                self.state = SessionState::Closed;
                Reply::bye(&self.hostname)
            }
            Command::Vrfy { .. } => Reply::cannot_verify(),
            Command::StartTls => {
                if self.capabilities.starttls {
                    // Negotiation is stubbed: the session continues in the
                    // clear, as the experiments don't model TLS.
                    Reply::single(
                        codes::TLS_NOT_AVAILABLE,
                        "4.7.0 TLS not available due to local problem",
                    )
                } else {
                    Reply::single(codes::NOT_IMPLEMENTED, "5.5.1 STARTTLS not offered")
                }
            }
            Command::Unknown { .. } => Reply::unrecognized(),
        }
    }

    /// Handles the message body after a 354, ending the transaction.
    ///
    /// `body_wire` is the already dot-unstuffed message text.
    ///
    /// # Panics
    ///
    /// Panics unless a 354 was just issued.
    pub fn handle_data_body(
        &mut self,
        now: SimTime,
        body_wire: &str,
        policy: &mut dyn ServerPolicy,
    ) -> Reply {
        assert_eq!(self.state, SessionState::ReadingData, "no DATA in progress");
        let reply = self.data_body_inner(now, body_wire, policy);
        self.metrics.on_reply(&reply);
        reply
    }

    fn data_body_inner(
        &mut self,
        now: SimTime,
        body_wire: &str,
        policy: &mut dyn ServerPolicy,
    ) -> Reply {
        if let Some(limit) = self.capabilities.size_limit {
            if body_wire.len() as u64 > limit {
                self.state = SessionState::Ready;
                self.tx.reset_mail();
                return Reply::single(
                    codes::SIZE_EXCEEDED,
                    "5.3.4 Message size exceeds fixed maximum message size",
                );
            }
        }
        let message = Message::from_wire(body_wire).unwrap_or_else(|| {
            // Bots sometimes send header-less junk; store it as a bare body.
            Message::builder().body(body_wire).build()
        });
        let mut builder = Envelope::builder()
            .client_ip(self.tx.client_ip)
            .helo(&self.tx.helo)
            .rcpts(self.tx.recipients.iter().cloned());
        if let Some(mail_from) = self.tx.mail_from.clone() {
            builder = builder.mail_from(mail_from);
        }
        let envelope = match builder.try_build() {
            Ok(envelope) => envelope,
            // A 354 is only issued after MAIL and RCPT, so this transaction
            // state is corrupt; fail the transaction, not the process.
            Err(_) => {
                self.state = SessionState::Ready;
                self.tx.reset_mail();
                return Reply::bad_sequence();
            }
        };
        self.state = SessionState::Ready;
        self.tx.reset_mail();
        match policy.on_message(now, &envelope, &message).into_reply() {
            Some(r) => r,
            None => {
                policy.on_accepted(now, &envelope, &message);
                self.accepted.push((envelope, message));
                Reply::single(codes::OK, "2.0.0 OK: queued")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: SimTime = SimTime::ZERO;

    fn client_ip() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 9)
    }

    fn session() -> ServerSession {
        ServerSession::new("mx.foo.net", client_ip())
    }

    fn cmd(s: &str) -> Command {
        Command::parse(s)
    }

    #[test]
    fn happy_path_transaction() {
        let mut p = AcceptAll;
        let mut s = session();
        assert_eq!(s.open(NOW, &mut p).code(), 220);
        assert_eq!(s.handle(NOW, &cmd("EHLO relay.example"), &mut p).code(), 250);
        assert_eq!(s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p).code(), 250);
        assert_eq!(s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p).code(), 250);
        assert_eq!(s.handle(NOW, &cmd("DATA"), &mut p).code(), 354);
        let body = "Subject: hi\r\n\r\nhello\r\n";
        assert_eq!(s.handle_data_body(NOW, body, &mut p).code(), 250);
        assert_eq!(s.handle(NOW, &cmd("QUIT"), &mut p).code(), 221);
        assert!(s.is_closed());
        assert_eq!(s.accepted().len(), 1);
        let (env, msg) = &s.accepted()[0];
        assert_eq!(env.client_ip(), client_ip());
        assert_eq!(env.helo(), "relay.example");
        assert_eq!(msg.header("subject"), Some("hi"));
    }

    #[test]
    fn enforces_command_sequence() {
        let mut p = AcceptAll;
        let mut s = session();
        s.open(NOW, &mut p);
        // MAIL before HELO.
        assert_eq!(s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p).code(), 503);
        s.handle(NOW, &cmd("HELO x"), &mut p);
        // RCPT before MAIL.
        assert_eq!(s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p).code(), 503);
        // DATA before RCPT.
        s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p);
        assert_eq!(s.handle(NOW, &cmd("DATA"), &mut p).code(), 503);
    }

    #[test]
    fn rset_clears_transaction() {
        let mut p = AcceptAll;
        let mut s = session();
        s.open(NOW, &mut p);
        s.handle(NOW, &cmd("HELO x"), &mut p);
        s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p);
        s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p);
        assert_eq!(s.handle(NOW, &cmd("RSET"), &mut p).code(), 250);
        // Transaction must restart from MAIL.
        assert_eq!(s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p).code(), 503);
        assert_eq!(s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p).code(), 250);
    }

    #[test]
    fn misc_commands() {
        let mut p = AcceptAll;
        let mut s = session();
        s.open(NOW, &mut p);
        assert_eq!(s.handle(NOW, &cmd("NOOP"), &mut p).code(), 250);
        assert_eq!(s.handle(NOW, &cmd("VRFY root"), &mut p).code(), 252);
        assert_eq!(s.handle(NOW, &cmd("STARTTLS"), &mut p).code(), 502);
        assert_eq!(s.handle(NOW, &cmd("FROBNICATE"), &mut p).code(), 500);
    }

    struct GreylistEverything;
    impl ServerPolicy for GreylistEverything {
        fn on_rcpt(&mut self, _: SimTime, _: &Transaction, _: &EmailAddress) -> PolicyDecision {
            PolicyDecision::TempFail(Reply::greylisted(300))
        }
    }

    #[test]
    fn policy_tempfail_at_rcpt() {
        let mut p = GreylistEverything;
        let mut s = session();
        s.open(NOW, &mut p);
        s.handle(NOW, &cmd("HELO x"), &mut p);
        s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p);
        let r = s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p);
        assert_eq!(r.code(), 450);
        assert!(r.is_transient());
        // No recipient accepted → DATA still refused.
        assert_eq!(s.handle(NOW, &cmd("DATA"), &mut p).code(), 503);
    }

    struct RejectConnections;
    impl ServerPolicy for RejectConnections {
        fn on_connect(&mut self, _: SimTime, _: Ipv4Addr) -> PolicyDecision {
            PolicyDecision::Reject(Reply::single(554, "5.7.1 go away"))
        }
    }

    #[test]
    fn policy_reject_at_connect_closes() {
        let mut p = RejectConnections;
        let mut s = session();
        let banner = s.open(NOW, &mut p);
        assert_eq!(banner.code(), 554);
        assert!(s.is_closed());
    }

    struct CountAccepted(usize);
    impl ServerPolicy for CountAccepted {
        fn on_accepted(&mut self, _: SimTime, _: &Envelope, _: &Message) {
            self.0 += 1;
        }
    }

    #[test]
    fn multiple_transactions_per_session() {
        let mut p = CountAccepted(0);
        let mut s = session();
        s.open(NOW, &mut p);
        s.handle(NOW, &cmd("HELO x"), &mut p);
        for _ in 0..3 {
            s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p);
            s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p);
            s.handle(NOW, &cmd("DATA"), &mut p);
            s.handle_data_body(NOW, "Subject: s\r\n\r\nb\r\n", &mut p);
        }
        assert_eq!(p.0, 3);
        assert_eq!(s.accepted().len(), 3);
    }

    #[test]
    fn headerless_body_still_accepted() {
        let mut p = AcceptAll;
        let mut s = session();
        s.open(NOW, &mut p);
        s.handle(NOW, &cmd("HELO x"), &mut p);
        s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p);
        s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p);
        s.handle(NOW, &cmd("DATA"), &mut p);
        assert_eq!(s.handle_data_body(NOW, "just junk no headers", &mut p).code(), 250);
        assert_eq!(s.accepted()[0].1.body(), "just junk no headers");
    }

    #[test]
    #[should_panic(expected = "open() called twice")]
    fn double_open_panics() {
        let mut p = AcceptAll;
        let mut s = session();
        s.open(NOW, &mut p);
        s.open(NOW, &mut p);
    }

    #[test]
    fn ehlo_advertises_capabilities_helo_does_not() {
        let mut p = AcceptAll;
        let mut s = session();
        s.open(NOW, &mut p);
        let r = s.handle(NOW, &cmd("EHLO relay.example"), &mut p);
        assert_eq!(r.code(), 250);
        assert!(r.lines().len() > 1, "EHLO reply must be multi-line");
        assert!(r.lines().iter().any(|l| l == "PIPELINING"));
        assert!(r.lines().iter().any(|l| l.starts_with("SIZE ")));

        let mut s = session();
        s.open(NOW, &mut p);
        let r = s.handle(NOW, &cmd("HELO relay.example"), &mut p);
        assert_eq!(r.lines().len(), 1, "HELO reply must be single-line");
    }

    #[test]
    fn declared_size_over_limit_rejected_at_mail() {
        let mut p = AcceptAll;
        let mut s = session().with_capabilities(crate::extensions::Capabilities {
            size_limit: Some(1_000),
            ..Default::default()
        });
        s.open(NOW, &mut p);
        s.handle(NOW, &cmd("EHLO x"), &mut p);
        let r = s.handle(NOW, &cmd("MAIL FROM:<a@b.cc> SIZE=5000"), &mut p);
        assert_eq!(r.code(), 552);
        // Within limit proceeds.
        let r = s.handle(NOW, &cmd("MAIL FROM:<a@b.cc> SIZE=500"), &mut p);
        assert_eq!(r.code(), 250);
    }

    #[test]
    fn oversized_body_rejected_after_data() {
        let mut p = AcceptAll;
        let mut s = session().with_capabilities(crate::extensions::Capabilities {
            size_limit: Some(64),
            ..Default::default()
        });
        s.open(NOW, &mut p);
        s.handle(NOW, &cmd("HELO x"), &mut p);
        s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p);
        s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p);
        s.handle(NOW, &cmd("DATA"), &mut p);
        let big_body = format!("Subject: s\r\n\r\n{}\r\n", "x".repeat(200));
        let r = s.handle_data_body(NOW, &big_body, &mut p);
        assert_eq!(r.code(), 552);
        assert!(s.accepted().is_empty());
        // The session recovers: a new small transaction succeeds.
        s.handle(NOW, &cmd("MAIL FROM:<a@b.cc>"), &mut p);
        s.handle(NOW, &cmd("RCPT TO:<x@foo.net>"), &mut p);
        s.handle(NOW, &cmd("DATA"), &mut p);
        assert_eq!(s.handle_data_body(NOW, "Subject: s\r\n\r\nok\r\n", &mut p).code(), 250);
    }

    #[test]
    fn starttls_answer_depends_on_capability() {
        let mut p = AcceptAll;
        let mut s = session();
        s.open(NOW, &mut p);
        s.handle(NOW, &cmd("HELO x"), &mut p);
        assert_eq!(s.handle(NOW, &cmd("STARTTLS"), &mut p).code(), 502);

        let mut s = session().with_capabilities(crate::extensions::Capabilities {
            starttls: true,
            ..Default::default()
        });
        s.open(NOW, &mut p);
        s.handle(NOW, &cmd("HELO x"), &mut p);
        assert_eq!(s.handle(NOW, &cmd("STARTTLS"), &mut p).code(), 454);
    }

    struct RejectPregreeters;
    impl ServerPolicy for RejectPregreeters {
        fn on_pregreet(&mut self, _: SimTime, _: Ipv4Addr) -> PolicyDecision {
            PolicyDecision::Reject(Reply::single(554, "5.5.1 protocol error: talked too soon"))
        }
    }

    #[test]
    fn pregreet_hook_vetoes_early_talkers() {
        let mut p = RejectPregreeters;
        let mut s = session();
        let banner = s.open_pregreeted(NOW, &mut p);
        assert_eq!(banner.code(), 554);
        assert!(s.is_closed());
        // Patient clients (open without pregreet) are unaffected.
        let mut s = session();
        assert_eq!(s.open(NOW, &mut p).code(), 220);
    }

    proptest::proptest! {
        /// Robustness: any stream of textual junk and valid commands gets
        /// a well-formed reply (code in 200..=599) and never panics, until
        /// the client QUITs.
        #[test]
        fn prop_server_survives_arbitrary_command_streams(
            lines in proptest::collection::vec("[ -~]{0,40}", 1..25)
        ) {
            let mut p = AcceptAll;
            let mut s = session();
            let banner = s.open(NOW, &mut p);
            proptest::prop_assert!((200..=599).contains(&banner.code()));
            for line in lines {
                if s.is_closed() {
                    break;
                }
                let cmd = Command::parse(&line);
                if s.state() == SessionState::ReadingData {
                    // The driver layer would be collecting body lines here;
                    // terminate the body and continue.
                    let r = s.handle_data_body(NOW, "Subject: x\r\n\r\nbody\r\n", &mut p);
                    proptest::prop_assert!((200..=599).contains(&r.code()));
                    continue;
                }
                let r = s.handle(NOW, &cmd, &mut p);
                proptest::prop_assert!((200..=599).contains(&r.code()));
                // Wire form always parses back.
                proptest::prop_assert!(Reply::from_wire(&r.to_wire()).is_some());
            }
        }
    }
}

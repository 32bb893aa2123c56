//! The sending-side SMTP state machine.

use crate::address::EmailAddress;
use crate::command::Command;
use crate::dialect::Dialect;
use crate::envelope::Envelope;
use crate::extensions::Capabilities;
use crate::message::Message;
use crate::reply::Reply;
use std::fmt;

/// The protocol stage at which a delivery attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailStage {
    /// The TCP connection itself (refused / timed out) — filled in by the
    /// transport layer, not this state machine.
    Connect,
    /// The 220 banner was not positive.
    Banner,
    /// HELO/EHLO was refused.
    Greeting,
    /// MAIL FROM was refused.
    MailFrom,
    /// Every recipient was refused (greylisting lands here).
    RcptTo,
    /// DATA or the message body was refused.
    Data,
}

impl fmt::Display for FailStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailStage::Connect => "connect",
            FailStage::Banner => "banner",
            FailStage::Greeting => "greeting",
            FailStage::MailFrom => "mail-from",
            FailStage::RcptTo => "rcpt-to",
            FailStage::Data => "data",
        };
        f.write_str(s)
    }
}

/// The result of one complete delivery attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The message body was accepted for at least one recipient.
    Delivered {
        /// Recipients the server accepted.
        accepted: Vec<EmailAddress>,
        /// Recipients deferred with 4xx (retry may succeed later).
        tempfailed: Vec<EmailAddress>,
        /// Recipients rejected with 5xx.
        rejected: Vec<EmailAddress>,
    },
    /// Nothing was delivered, but a later retry may succeed (4xx).
    TempFailed {
        /// Stage of the failure.
        stage: FailStage,
        /// The server's reply code.
        code: u16,
        /// Recipients that were deferred (for per-recipient requeueing).
        tempfailed: Vec<EmailAddress>,
    },
    /// Nothing was delivered and retrying is pointless (5xx).
    PermFailed {
        /// Stage of the failure.
        stage: FailStage,
        /// The server's reply code.
        code: u16,
    },
}

impl DeliveryOutcome {
    /// Whether at least one recipient got the message.
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryOutcome::Delivered { .. })
    }

    /// Whether a retry later could help.
    pub fn is_retryable(&self) -> bool {
        match self {
            DeliveryOutcome::TempFailed { .. } => true,
            DeliveryOutcome::Delivered { tempfailed, .. } => !tempfailed.is_empty(),
            DeliveryOutcome::PermFailed { .. } => false,
        }
    }

    /// The recipients still owed a delivery (deferred with 4xx).
    pub fn pending_recipients(&self) -> &[EmailAddress] {
        match self {
            DeliveryOutcome::Delivered { tempfailed, .. }
            | DeliveryOutcome::TempFailed { tempfailed, .. } => tempfailed,
            DeliveryOutcome::PermFailed { .. } => &[],
        }
    }

    /// Convenience constructor for transport-level failures.
    pub fn connect_failed(recipients: &[EmailAddress], transient: bool) -> Self {
        if transient {
            DeliveryOutcome::TempFailed {
                stage: FailStage::Connect,
                code: 421,
                tempfailed: recipients.to_vec(),
            }
        } else {
            DeliveryOutcome::PermFailed { stage: FailStage::Connect, code: 521 }
        }
    }
}

impl fmt::Display for DeliveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryOutcome::Delivered { accepted, tempfailed, rejected } => write!(
                f,
                "delivered to {} rcpt(s) ({} deferred, {} rejected)",
                accepted.len(),
                tempfailed.len(),
                rejected.len()
            ),
            DeliveryOutcome::TempFailed { stage, code, .. } => {
                write!(f, "deferred with {code} at {stage}")
            }
            DeliveryOutcome::PermFailed { stage, code } => {
                write!(f, "rejected with {code} at {stage}")
            }
        }
    }
}

/// What the client wants to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Send this command and wait for a reply.
    Send(Command),
    /// Send this message's wire form, dot-stuffed, and wait for a reply.
    SendBody(Message),
    /// Close the connection; the attempt is finished.
    Close(DeliveryOutcome),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    AwaitBanner,
    SentEhlo,
    SentHeloFallback,
    SentMail,
    SentRcpt,
    SentData,
    SentBody,
    SentQuit,
    Done,
}

/// The sending-side state machine for one delivery attempt.
///
/// Feed it every server reply (starting with the banner) via
/// [`ClientSession::on_reply`]; it answers with the next [`ClientAction`].
/// The [`Dialect`] controls greeting style, error manners and recipient
/// perseverance.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_smtp::{
///     AcceptAll, ClientSession, Dialect, Envelope, Message, ServerSession, exchange,
/// };
/// use spamward_sim::SimTime;
///
/// let env = Envelope::builder()
///     .client_ip(Ipv4Addr::new(203, 0, 113, 9))
///     .mail_from("sender@relay.example".parse::<spamward_smtp::EmailAddress>()?)
///     .rcpt("user@foo.net".parse()?)
///     .build();
/// let msg = Message::builder().header("Subject", "hi").body("hello").build();
/// let mut client = ClientSession::new(Dialect::compliant_mta("relay.example"), env, msg);
/// let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
/// let mut policy = AcceptAll;
///
/// let (outcome, _transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
/// assert!(outcome.is_delivered());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClientSession {
    dialect: Dialect,
    envelope: Envelope,
    message: Message,
    state: State,
    server_caps: Capabilities,
    next_rcpt: usize,
    accepted: Vec<EmailAddress>,
    tempfailed: Vec<EmailAddress>,
    rejected: Vec<EmailAddress>,
    outcome_after_quit: Option<DeliveryOutcome>,
}

impl ClientSession {
    /// Creates a delivery attempt for `envelope` carrying `message`.
    pub fn new(dialect: Dialect, envelope: Envelope, message: Message) -> Self {
        ClientSession {
            dialect,
            envelope,
            message,
            state: State::AwaitBanner,
            server_caps: Capabilities::none(),
            next_rcpt: 0,
            accepted: Vec::new(),
            tempfailed: Vec::new(),
            rejected: Vec::new(),
            outcome_after_quit: None,
        }
    }

    /// The envelope being attempted.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// The dialect in use.
    pub fn dialect(&self) -> &Dialect {
        &self.dialect
    }

    fn mail_command(&self) -> Command {
        // Declare SIZE when the server advertised the extension (RFC 1870
        // behaviour of full MTAs; bots use HELO and never negotiate).
        let declared_size =
            self.server_caps.size_limit.is_some().then(|| self.message.size() as u64);
        Command::MailFrom { path: self.envelope.mail_from().clone(), declared_size }
    }

    fn greeting_command(&self) -> Command {
        let domain = self.dialect.helo_argument(self.envelope.client_ip());
        if self.dialect.uses_ehlo {
            Command::Ehlo { domain }
        } else {
            Command::Helo { domain }
        }
    }

    fn fail(&mut self, stage: FailStage, reply: &Reply) -> ClientAction {
        let outcome = if reply.is_transient() {
            DeliveryOutcome::TempFailed {
                stage,
                code: reply.code(),
                tempfailed: self.envelope.recipients().to_vec(),
            }
        } else {
            DeliveryOutcome::PermFailed { stage, code: reply.code() }
        };
        self.finish(outcome)
    }

    fn finish(&mut self, outcome: DeliveryOutcome) -> ClientAction {
        if self.dialect.quits_on_failure && self.state != State::SentQuit {
            self.outcome_after_quit = Some(outcome);
            self.state = State::SentQuit;
            ClientAction::Send(Command::Quit)
        } else {
            self.state = State::Done;
            ClientAction::Close(outcome)
        }
    }

    fn rcpt_phase_done(&mut self) -> ClientAction {
        if self.accepted.is_empty() {
            // Nothing to send DATA for. Classify by what happened.
            let outcome = if !self.tempfailed.is_empty() {
                DeliveryOutcome::TempFailed {
                    stage: FailStage::RcptTo,
                    code: 450,
                    tempfailed: std::mem::take(&mut self.tempfailed),
                }
            } else {
                DeliveryOutcome::PermFailed { stage: FailStage::RcptTo, code: 550 }
            };
            return self.finish(outcome);
        }
        self.state = State::SentData;
        ClientAction::Send(Command::Data)
    }

    fn next_rcpt_or_data(&mut self) -> ClientAction {
        if self.next_rcpt < self.envelope.recipients().len() {
            let address = self.envelope.recipients()[self.next_rcpt].clone();
            self.next_rcpt += 1;
            self.state = State::SentRcpt;
            ClientAction::Send(Command::RcptTo { address })
        } else {
            self.rcpt_phase_done()
        }
    }

    /// Advances the state machine with the server's latest reply.
    ///
    /// The first call must pass the connection banner.
    ///
    /// # Panics
    ///
    /// Panics if called after the session produced [`ClientAction::Close`].
    pub fn on_reply(&mut self, reply: &Reply) -> ClientAction {
        match self.state {
            State::Done => panic!("on_reply() after session finished"),
            State::AwaitBanner => {
                if !reply.is_positive() {
                    return self.fail(FailStage::Banner, reply);
                }
                self.state = State::SentEhlo;
                ClientAction::Send(self.greeting_command())
            }
            State::SentEhlo => {
                if reply.is_positive() {
                    if self.dialect.uses_ehlo {
                        // Capability lines follow the greeting line.
                        self.server_caps = Capabilities::from_ehlo_lines(
                            reply.lines().iter().skip(1).map(|line| &**line),
                        );
                    }
                    self.state = State::SentMail;
                    return ClientAction::Send(self.mail_command());
                }
                if reply.is_permanent() && self.dialect.uses_ehlo {
                    // Old server: fall back from EHLO to HELO.
                    self.state = State::SentHeloFallback;
                    let domain = self.dialect.helo_argument(self.envelope.client_ip());
                    return ClientAction::Send(Command::Helo { domain });
                }
                self.fail(FailStage::Greeting, reply)
            }
            State::SentHeloFallback => {
                if reply.is_positive() {
                    self.state = State::SentMail;
                    return ClientAction::Send(self.mail_command());
                }
                self.fail(FailStage::Greeting, reply)
            }
            State::SentMail => {
                if !reply.is_positive() {
                    return self.fail(FailStage::MailFrom, reply);
                }
                self.next_rcpt_or_data()
            }
            State::SentRcpt => {
                let rcpt = self.envelope.recipients()[self.next_rcpt - 1].clone();
                if reply.is_positive() {
                    self.accepted.push(rcpt);
                } else if reply.is_transient() {
                    self.tempfailed.push(rcpt);
                    if self.dialect.aborts_on_first_rcpt_error {
                        // Fire-and-forget: don't bother with the rest.
                        let mut tempfailed = std::mem::take(&mut self.tempfailed);
                        tempfailed
                            .extend(self.envelope.recipients()[self.next_rcpt..].iter().cloned());
                        return self.finish(DeliveryOutcome::TempFailed {
                            stage: FailStage::RcptTo,
                            code: reply.code(),
                            tempfailed,
                        });
                    }
                } else {
                    self.rejected.push(rcpt);
                    if self.dialect.aborts_on_first_rcpt_error {
                        return self.finish(DeliveryOutcome::PermFailed {
                            stage: FailStage::RcptTo,
                            code: reply.code(),
                        });
                    }
                }
                self.next_rcpt_or_data()
            }
            State::SentData => {
                if !reply.is_intermediate() {
                    return self.fail(FailStage::Data, reply);
                }
                self.state = State::SentBody;
                ClientAction::SendBody(self.message.clone())
            }
            State::SentBody => {
                if !reply.is_positive() {
                    return self.fail(FailStage::Data, reply);
                }
                let outcome = DeliveryOutcome::Delivered {
                    accepted: std::mem::take(&mut self.accepted),
                    tempfailed: std::mem::take(&mut self.tempfailed),
                    rejected: std::mem::take(&mut self.rejected),
                };
                self.outcome_after_quit = Some(outcome);
                self.state = State::SentQuit;
                ClientAction::Send(Command::Quit)
            }
            State::SentQuit => {
                // Whatever the server says to QUIT, we are done. The
                // outcome is recorded whenever we enter SentQuit; should
                // it ever be missing, a lost outcome is a failed delivery,
                // not a crashed relay.
                self.state = State::Done;
                let outcome =
                    self.outcome_after_quit.take().unwrap_or(DeliveryOutcome::PermFailed {
                        stage: FailStage::Connect,
                        code: 521,
                    });
                ClientAction::Close(outcome)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ReversePath;
    use std::net::Ipv4Addr;

    fn envelope(rcpts: &[&str]) -> Envelope {
        let mut b = Envelope::builder()
            .client_ip(Ipv4Addr::new(203, 0, 113, 9))
            .mail_from(ReversePath::Address("sender@relay.example".parse().unwrap()));
        for r in rcpts {
            b = b.rcpt(r.parse().unwrap());
        }
        b.build()
    }

    fn msg() -> Message {
        Message::builder().header("Subject", "t").body("b").build()
    }

    fn mta_client(rcpts: &[&str]) -> ClientSession {
        ClientSession::new(Dialect::compliant_mta("relay.example"), envelope(rcpts), msg())
    }

    fn bot_client(rcpts: &[&str]) -> ClientSession {
        ClientSession::new(Dialect::minimal_bot("bot"), envelope(rcpts), msg())
    }

    #[test]
    fn happy_path_command_sequence() {
        let mut c = mta_client(&["u@foo.net"]);
        let a = c.on_reply(&Reply::banner("mx.foo.net"));
        assert_eq!(a, ClientAction::Send(Command::Ehlo { domain: "relay.example".into() }));
        let a = c.on_reply(&Reply::hello("mx.foo.net", "relay.example"));
        assert!(matches!(a, ClientAction::Send(Command::MailFrom { .. })));
        let a = c.on_reply(&Reply::ok());
        assert!(matches!(a, ClientAction::Send(Command::RcptTo { .. })));
        let a = c.on_reply(&Reply::ok());
        assert_eq!(a, ClientAction::Send(Command::Data));
        let a = c.on_reply(&Reply::start_mail_input());
        assert!(matches!(a, ClientAction::SendBody(_)));
        let a = c.on_reply(&Reply::single(250, "queued"));
        assert_eq!(a, ClientAction::Send(Command::Quit));
        let a = c.on_reply(&Reply::bye("mx.foo.net"));
        match a {
            ClientAction::Close(DeliveryOutcome::Delivered { accepted, .. }) => {
                assert_eq!(accepted.len(), 1)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bot_uses_helo_and_hangs_up_on_greylist() {
        let mut c = bot_client(&["u@foo.net", "v@foo.net"]);
        let a = c.on_reply(&Reply::banner("mx"));
        assert_eq!(a, ClientAction::Send(Command::Helo { domain: "[203.0.113.9]".into() }));
        c.on_reply(&Reply::hello("mx", "x"));
        let a = c.on_reply(&Reply::ok()); // MAIL ok → first RCPT
        assert!(matches!(a, ClientAction::Send(Command::RcptTo { .. })));
        // Greylisted: bot aborts instantly, no QUIT.
        let a = c.on_reply(&Reply::greylisted(300));
        match a {
            ClientAction::Close(DeliveryOutcome::TempFailed { stage, code, tempfailed }) => {
                assert_eq!(stage, FailStage::RcptTo);
                assert_eq!(code, 450);
                assert_eq!(tempfailed.len(), 2, "unattempted rcpts count as deferred");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mta_perseveres_through_mixed_rcpt_results() {
        let mut c = mta_client(&["a@foo.net", "b@foo.net", "c@foo.net"]);
        c.on_reply(&Reply::banner("mx"));
        c.on_reply(&Reply::hello("mx", "x"));
        c.on_reply(&Reply::ok()); // MAIL → RCPT a
        c.on_reply(&Reply::ok()); // a accepted → RCPT b
        c.on_reply(&Reply::greylisted(300)); // b deferred → RCPT c
        let a = c.on_reply(&Reply::no_such_user()); // c rejected → DATA
        assert_eq!(a, ClientAction::Send(Command::Data));
        c.on_reply(&Reply::start_mail_input());
        let a = c.on_reply(&Reply::single(250, "queued"));
        assert_eq!(a, ClientAction::Send(Command::Quit));
        match c.on_reply(&Reply::bye("mx")) {
            ClientAction::Close(DeliveryOutcome::Delivered { accepted, tempfailed, rejected }) => {
                assert_eq!(accepted.len(), 1);
                assert_eq!(tempfailed.len(), 1);
                assert_eq!(rejected.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_rcpts_greylisted_is_tempfail_with_quit() {
        let mut c = mta_client(&["a@foo.net", "b@foo.net"]);
        c.on_reply(&Reply::banner("mx"));
        c.on_reply(&Reply::hello("mx", "x"));
        c.on_reply(&Reply::ok());
        c.on_reply(&Reply::greylisted(300));
        let a = c.on_reply(&Reply::greylisted(300));
        assert_eq!(a, ClientAction::Send(Command::Quit), "compliant MTA quits politely");
        match c.on_reply(&Reply::bye("mx")) {
            ClientAction::Close(o) => {
                assert!(o.is_retryable());
                assert_eq!(o.pending_recipients().len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_rcpts_rejected_is_permfail() {
        let mut c = mta_client(&["a@foo.net"]);
        c.on_reply(&Reply::banner("mx"));
        c.on_reply(&Reply::hello("mx", "x"));
        c.on_reply(&Reply::ok());
        c.on_reply(&Reply::no_such_user());
        match c.on_reply(&Reply::bye("mx")) {
            ClientAction::Close(o) => {
                assert!(!o.is_retryable());
                assert!(matches!(o, DeliveryOutcome::PermFailed { stage: FailStage::RcptTo, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transient_banner_is_retryable() {
        let mut c = mta_client(&["a@foo.net"]);
        let a = c.on_reply(&Reply::service_unavailable("mx"));
        assert_eq!(a, ClientAction::Send(Command::Quit));
        match c.on_reply(&Reply::bye("mx")) {
            ClientAction::Close(DeliveryOutcome::TempFailed { stage, .. }) => {
                assert_eq!(stage, FailStage::Banner)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ehlo_falls_back_to_helo() {
        let mut c = mta_client(&["a@foo.net"]);
        c.on_reply(&Reply::banner("mx"));
        let a = c.on_reply(&Reply::unrecognized()); // EHLO → 500
        assert_eq!(a, ClientAction::Send(Command::Helo { domain: "relay.example".into() }));
        let a = c.on_reply(&Reply::hello("mx", "x"));
        assert!(matches!(a, ClientAction::Send(Command::MailFrom { .. })));
    }

    #[test]
    fn data_rejection_after_rcpt() {
        let mut c = mta_client(&["a@foo.net"]);
        c.on_reply(&Reply::banner("mx"));
        c.on_reply(&Reply::hello("mx", "x"));
        c.on_reply(&Reply::ok());
        c.on_reply(&Reply::ok());
        c.on_reply(&Reply::start_mail_input());
        // Body refused with a 5xx content filter.
        let a = c.on_reply(&Reply::rejected_policy("spam content"));
        assert_eq!(a, ClientAction::Send(Command::Quit));
        match c.on_reply(&Reply::bye("mx")) {
            ClientAction::Close(DeliveryOutcome::PermFailed { stage, code }) => {
                assert_eq!(stage, FailStage::Data);
                assert_eq!(code, 550);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "after session finished")]
    fn on_reply_after_close_panics() {
        let mut c = bot_client(&["a@foo.net"]);
        c.on_reply(&Reply::banner("mx"));
        c.on_reply(&Reply::hello("mx", "x"));
        c.on_reply(&Reply::no_such_user()); // MAIL rejected → bot closes without QUIT
        c.on_reply(&Reply::ok());
    }

    #[test]
    fn outcome_helpers() {
        let d = DeliveryOutcome::Delivered {
            accepted: vec!["a@b.cc".parse().unwrap()],
            tempfailed: vec![],
            rejected: vec![],
        };
        assert!(d.is_delivered() && !d.is_retryable());
        let t = DeliveryOutcome::connect_failed(&["a@b.cc".parse().unwrap()], true);
        assert!(t.is_retryable());
        assert_eq!(t.pending_recipients().len(), 1);
        let p = DeliveryOutcome::connect_failed(&[], false);
        assert!(!p.is_retryable());
        assert!(format!("{d}").contains("delivered"));
    }
}

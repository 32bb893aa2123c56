//! Wire helpers: dot-stuffing and the lock-step client/server driver.

use crate::client::{ClientAction, ClientSession, DeliveryOutcome};
use crate::command::Command;
use crate::dialect::DialectFingerprint;
use crate::reply::Reply;
use crate::server::{ServerPolicy, ServerSession};
use spamward_sim::SimTime;
use std::fmt;

/// Applies RFC 5321 §4.5.2 dot-stuffing: any body line beginning with `.`
/// gets one extra leading `.`, and the terminating `<CRLF>.<CRLF>` is
/// appended.
///
/// # Example
///
/// ```
/// use spamward_smtp::dot_stuff;
/// let wire = dot_stuff("hi\r\n.hidden dot\r\n");
/// assert!(wire.contains("..hidden dot"));
/// assert!(wire.ends_with("\r\n.\r\n"));
/// ```
pub fn dot_stuff(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 16);
    for line in body.split("\r\n") {
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push_str("\r\n");
    }
    // split() yields a trailing empty element for CRLF-terminated input,
    // which would add a spurious blank line; strip it.
    if body.ends_with("\r\n") {
        out.truncate(out.len() - 2);
    }
    out.push_str(".\r\n");
    out
}

/// Reverses [`dot_stuff`]: strips the terminating dot line and un-doubles
/// leading dots. Returns `None` when the terminator is missing.
///
/// SMTP cannot distinguish a body with a trailing CRLF from one without
/// (both serialize to the same wire form), so the result is normalized to
/// have *no* trailing CRLF.
pub fn dot_unstuff(wire: &str) -> Option<String> {
    let stripped = match wire.strip_suffix("\r\n.\r\n") {
        Some(s) => s,
        None if wire == ".\r\n" => "",
        None => return None,
    };
    let mut out = String::with_capacity(stripped.len());
    for (i, line) in stripped.split("\r\n").enumerate() {
        if i > 0 {
            out.push_str("\r\n");
        }
        if let Some(rest) = line.strip_prefix('.') {
            out.push_str(rest);
        } else {
            out.push_str(line);
        }
    }
    Some(out)
}

/// Which side of the connection produced a transcript line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranscriptEntry {
    /// Client → server.
    ClientToServer,
    /// Server → client.
    ServerToClient,
}

/// The pregreet marker line: the early talker's bytes, sent before the
/// banner.
const PREGREET_LINE: &str = "<talks before banner>";

/// One recorded step of a conversation, kept as the typed value the
/// session exchanged.
#[derive(Debug, Clone)]
enum Step {
    /// The client talked before the banner.
    Pregreet,
    /// A client command.
    Command(Command),
    /// The DATA body, by its dot-stuffed length in bytes.
    Body(usize),
    /// A server reply.
    Reply(Reply),
}

impl Step {
    fn direction(&self) -> TranscriptEntry {
        match self {
            Step::Pregreet | Step::Command(_) | Step::Body(_) => TranscriptEntry::ClientToServer,
            Step::Reply(_) => TranscriptEntry::ServerToClient,
        }
    }

    /// The step's wire text without its final CRLF (a multi-line reply
    /// keeps its inner CRLFs).
    fn line(&self) -> String {
        match self {
            Step::Pregreet => PREGREET_LINE.to_owned(),
            Step::Command(cmd) => cmd.to_wire().trim_end().to_owned(),
            Step::Body(len) => format!("<{len} bytes of data>"),
            Step::Reply(reply) => reply.to_wire().trim_end().to_owned(),
        }
    }
}

/// A recorded SMTP conversation, one line per exchange.
///
/// The transcript keeps the commands and replies the session exchanged as
/// typed values and renders wire text only when it is read
/// ([`Transcript::entries`], the line iterators, [`Transcript::fingerprint`]
/// and `Display`), so a caller that only counts steps
/// ([`Transcript::len`]) pays no formatting.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    steps: Vec<Step>,
}

impl Transcript {
    /// The number of lines, both directions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing was exchanged.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// All entries in order, rendered to wire text.
    pub fn entries(&self) -> Vec<(TranscriptEntry, String)> {
        self.steps.iter().map(|step| (step.direction(), step.line())).collect()
    }

    /// The client lines only.
    pub fn client_lines(&self) -> impl Iterator<Item = String> + '_ {
        let client = TranscriptEntry::ClientToServer;
        self.steps.iter().filter(move |step| step.direction() == client).map(Step::line)
    }

    /// Infers the sender's behavioural fingerprint from the observed
    /// conversation alone — the B@bel idea (Stringhini et al., USENIX
    /// Security 2012) the paper builds on.
    ///
    /// Works best on transcripts that contain a failure (a greylisted
    /// RCPT): that is where polite MTAs and fire-and-forget bots diverge.
    /// When the transcript carries no disambiguating signal, a feature
    /// defaults to the compliant value.
    pub fn fingerprint(&self) -> DialectFingerprint {
        let mut greets_with_ehlo = false;
        let mut helo_is_literal = false;
        let mut early_talker = false;
        let mut quits = false;
        let mut saw_rcpt_failure = false;
        let mut acted_after_rcpt_failure = false;
        let mut greeting_seen = false;
        let mut last_client_verb: Option<String> = None;

        for (dir, line) in self.entries() {
            match dir {
                TranscriptEntry::ClientToServer => {
                    if line == PREGREET_LINE {
                        early_talker = true;
                        continue;
                    }
                    let upper = line.to_ascii_uppercase();
                    let verb = upper.split_whitespace().next().unwrap_or("").to_owned();
                    if !greeting_seen && (verb == "EHLO" || verb == "HELO") {
                        greeting_seen = true;
                        greets_with_ehlo = verb == "EHLO";
                        if line.split_whitespace().nth(1).is_some_and(|a| a.starts_with('[')) {
                            helo_is_literal = true;
                        }
                    }
                    if verb == "QUIT" {
                        quits = true;
                    }
                    if saw_rcpt_failure && (verb == "RCPT" || verb == "DATA") {
                        acted_after_rcpt_failure = true;
                    }
                    last_client_verb = Some(verb);
                }
                TranscriptEntry::ServerToClient => {
                    let code: u16 = line.get(..3).and_then(|c| c.parse().ok()).unwrap_or(0);
                    if (400..600).contains(&code) && last_client_verb.as_deref() == Some("RCPT") {
                        saw_rcpt_failure = true;
                    }
                }
            }
        }

        DialectFingerprint {
            greets_with_ehlo,
            helo_is_literal,
            quits_politely: quits,
            retries_remaining_rcpts: !saw_rcpt_failure || acted_after_rcpt_failure,
            early_talker,
        }
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            let arrow = match step.direction() {
                TranscriptEntry::ClientToServer => "C>",
                TranscriptEntry::ServerToClient => "S<",
            };
            writeln!(f, "{arrow} {}", step.line())?;
        }
        Ok(())
    }
}

/// Runs a [`ClientSession`] against a [`ServerSession`] to completion,
/// returning the delivery outcome and the conversation transcript.
///
/// The driver is lock-step: every client command gets exactly one server
/// reply. The transcript takes each command and reply by move, as typed
/// values, and renders no wire text here (see [`Transcript`]). Transport-level
/// failures (refused/timed-out connections) never reach this function —
/// model those with [`DeliveryOutcome::connect_failed`].
///
/// # Panics
///
/// Panics if the conversation exceeds 10 000 exchanges (a state-machine
/// bug, not a realistic session).
pub fn exchange(
    client: &mut ClientSession,
    server: &mut ServerSession,
    policy: &mut dyn ServerPolicy,
    now: SimTime,
) -> (DeliveryOutcome, Transcript) {
    // Room for a whole delivered session (about 14 steps) up front.
    let mut transcript = Transcript { steps: Vec::with_capacity(16) };
    let mut reply = if client.dialect().waits_for_banner {
        server.open(now, policy)
    } else {
        // Early talker: the client's first bytes race the banner; the
        // server's pregreet hook gets to veto before anything else.
        transcript.steps.push(Step::Pregreet);
        server.open_pregreeted(now, policy)
    };

    for _ in 0..10_000 {
        let action = client.on_reply(&reply);
        // Every reply is recorded right after the client read it, and every
        // command right after the server answered it — the same
        // server/client alternation the wire carries.
        transcript.steps.push(Step::Reply(reply));
        match action {
            ClientAction::Send(cmd) => {
                reply = if server.is_closed() {
                    // Server hung up (e.g. rejected at connect); treat any
                    // further client talk as into-the-void and finish.
                    Reply::service_unavailable("closed")
                } else {
                    server.handle(now, &cmd, policy)
                };
                transcript.steps.push(Step::Command(cmd));
            }
            ClientAction::SendBody(message) => {
                // Stuff once: the stuffed length is the transcript line,
                // and unstuffing it gives the body the server receives.
                let stuffed = dot_stuff(message.to_wire());
                transcript.steps.push(Step::Body(stuffed.len()));
                // `dot_stuff` always appends the terminator `dot_unstuff`
                // requires, so the default is never taken.
                let unstuffed = dot_unstuff(&stuffed).unwrap_or_default();
                reply = server.handle_data_body(now, &unstuffed, policy);
            }
            ClientAction::Close(outcome) => return (outcome, transcript),
        }
    }
    panic!("SMTP exchange did not terminate within 10000 steps");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ReversePath;
    use crate::dialect::Dialect;
    use crate::envelope::Envelope;
    use crate::message::Message;
    use crate::reply::Reply;
    use crate::server::{AcceptAll, PolicyDecision, Transaction};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    #[test]
    fn dot_stuffing_roundtrip() {
        let body = "line\r\n.starts with dot\r\n..two dots\r\nend";
        let stuffed = dot_stuff(body);
        assert!(stuffed.contains("\r\n..starts with dot\r\n"));
        assert!(stuffed.contains("\r\n...two dots\r\n"));
        assert!(stuffed.ends_with("\r\n.\r\n"));
        assert_eq!(dot_unstuff(&stuffed).unwrap(), body);
    }

    #[test]
    fn dot_stuff_handles_trailing_crlf() {
        let body = "hello\r\n";
        let stuffed = dot_stuff(body);
        assert_eq!(stuffed, "hello\r\n.\r\n");
    }

    #[test]
    fn dot_unstuff_requires_terminator() {
        assert_eq!(dot_unstuff("no terminator"), None);
    }

    fn env(rcpts: &[&str]) -> Envelope {
        let mut b = Envelope::builder()
            .client_ip(Ipv4Addr::new(203, 0, 113, 9))
            .mail_from(ReversePath::Address("s@relay.example".parse().unwrap()));
        for r in rcpts {
            b = b.rcpt(r.parse().unwrap());
        }
        b.build()
    }

    fn msg() -> Message {
        Message::builder().header("Subject", "x").body(".dotty\nplain").build()
    }

    #[test]
    fn full_exchange_delivers() {
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = AcceptAll;
        let (outcome, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
        assert!(outcome.is_delivered());
        assert_eq!(server.accepted().len(), 1);
        // The dot-stuffed line must arrive un-stuffed.
        assert_eq!(server.accepted()[0].1.body(), ".dotty\nplain");
        // Transcript captures both directions.
        assert!(transcript.client_lines().any(|l| l.starts_with("EHLO")));
        let rendered = transcript.to_string();
        assert!(rendered.starts_with("S< 220"));
        assert!(rendered.contains("C> QUIT"));
    }

    struct GreylistFirstRcpt;
    impl ServerPolicy for GreylistFirstRcpt {
        fn on_rcpt(
            &mut self,
            _: SimTime,
            _: &Transaction,
            _: &crate::address::EmailAddress,
        ) -> PolicyDecision {
            PolicyDecision::TempFail(Reply::greylisted(300))
        }
    }

    #[test]
    fn greylisted_exchange_is_retryable() {
        let mut client =
            ClientSession::new(Dialect::minimal_bot("bot"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = GreylistFirstRcpt;
        let (outcome, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
        assert!(outcome.is_retryable());
        assert!(!outcome.is_delivered());
        // Fire-and-forget: no QUIT in the transcript.
        assert!(!transcript.client_lines().any(|l| l.starts_with("QUIT")));
    }

    /// Pinned `Display` bytes of three sessions: rendering on read must
    /// reproduce the wire text byte for byte.
    const MTA_GREYLISTED: &str = concat!(
        "S< 220 mx.foo.net ESMTP spamward\n",
        "C> EHLO relay.example\n",
        "S< 250-mx.foo.net Hello relay.example\r\n250-PIPELINING\r\n250-SIZE 10485760\r\n",
        "250-8BITMIME\r\n250 ENHANCEDSTATUSCODES\n",
        "C> MAIL FROM:<s@relay.example> SIZE=29\n",
        "S< 250 OK\n",
        "C> RCPT TO:<u@foo.net>\n",
        "S< 450 4.2.0 Greylisted, see http://postgrey.schweikert.ch/ (retry in 300s)\n",
        "C> QUIT\n",
        "S< 221 mx.foo.net Service closing transmission channel\n",
    );
    const BOT_GREYLISTED: &str = concat!(
        "C> <talks before banner>\n",
        "S< 220 mx.foo.net ESMTP spamward\n",
        "C> HELO [203.0.113.9]\n",
        "S< 250 mx.foo.net Hello [203.0.113.9], I am glad to meet you\n",
        "C> MAIL FROM:<s@relay.example>\n",
        "S< 250 OK\n",
        "C> RCPT TO:<u@foo.net>\n",
        "S< 450 4.2.0 Greylisted, see http://postgrey.schweikert.ch/ (retry in 300s)\n",
    );
    const MTA_DELIVERED: &str = concat!(
        "S< 220 mx.foo.net ESMTP spamward\n",
        "C> EHLO relay.example\n",
        "S< 250-mx.foo.net Hello relay.example\r\n250-PIPELINING\r\n250-SIZE 10485760\r\n",
        "250-8BITMIME\r\n250 ENHANCEDSTATUSCODES\n",
        "C> MAIL FROM:<s@relay.example> SIZE=29\n",
        "S< 250 OK\n",
        "C> RCPT TO:<u@foo.net>\n",
        "S< 250 OK\n",
        "C> DATA\n",
        "S< 354 End data with <CR><LF>.<CR><LF>\n",
        "C> <33 bytes of data>\n",
        "S< 250 2.0.0 OK: queued\n",
        "C> QUIT\n",
        "S< 221 mx.foo.net Service closing transmission channel\n",
    );

    #[test]
    fn transcript_display_is_pinned() {
        let run = |dialect: Dialect, policy: &mut dyn ServerPolicy| {
            let mut client = ClientSession::new(dialect, env(&["u@foo.net"]), msg());
            let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
            exchange(&mut client, &mut server, policy, SimTime::ZERO).1
        };
        let cases = [
            (run(Dialect::compliant_mta("relay.example"), &mut GreylistFirstRcpt), MTA_GREYLISTED),
            (run(Dialect::minimal_bot("bot"), &mut GreylistFirstRcpt), BOT_GREYLISTED),
            (run(Dialect::compliant_mta("relay.example"), &mut AcceptAll), MTA_DELIVERED),
        ];
        for (transcript, pinned) in cases {
            assert_eq!(transcript.to_string(), pinned);
            // One entry per arrowed line, and `len` counts them unrendered.
            let arrowed =
                pinned.split('\n').filter(|l| l.starts_with("C> ") || l.starts_with("S< "));
            assert_eq!(transcript.len(), arrowed.count());
            assert_eq!(transcript.entries().len(), transcript.len());
        }
    }

    struct RejectBanner;
    impl ServerPolicy for RejectBanner {
        fn on_connect(&mut self, _: SimTime, _: Ipv4Addr) -> PolicyDecision {
            PolicyDecision::Reject(Reply::single(554, "5.7.1 blocked"))
        }
    }

    #[test]
    fn rejected_banner_finishes_cleanly() {
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = RejectBanner;
        let (outcome, _) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
        assert!(matches!(outcome, DeliveryOutcome::PermFailed { .. }));
    }

    #[test]
    fn transcript_fingerprint_separates_bot_from_mta() {
        // Run both dialects against a greylist-everything policy; the
        // failure path is where the fingerprints diverge.
        let run = |dialect: Dialect| {
            let mut client = ClientSession::new(dialect, env(&["u@foo.net", "v@foo.net"]), msg());
            let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
            let mut policy = GreylistFirstRcpt;
            let (_, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
            transcript.fingerprint()
        };
        let mta = run(Dialect::compliant_mta("relay.example"));
        assert!(mta.looks_like_mta(), "{mta:?}");
        assert!(mta.greets_with_ehlo && mta.quits_politely && !mta.early_talker);
        assert!(mta.retries_remaining_rcpts, "MTA tried the second RCPT after the 450");

        let bot = run(Dialect::minimal_bot("bot"));
        assert!(!bot.looks_like_mta(), "{bot:?}");
        assert!(bot.early_talker && bot.helo_is_literal);
        assert!(!bot.quits_politely && !bot.retries_remaining_rcpts);
    }

    #[test]
    fn transcript_fingerprint_on_clean_success_defaults_compliant() {
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = AcceptAll;
        let (_, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
        let fp = transcript.fingerprint();
        assert!(fp.retries_remaining_rcpts, "no failure signal defaults to compliant");
        assert!(fp.looks_like_mta());
    }

    proptest! {
        #[test]
        fn prop_dot_roundtrip(body in "[a-zA-Z0-9. ]{0,120}") {
            let normalized = body.replace('\n', "");
            let stuffed = dot_stuff(&normalized);
            prop_assert_eq!(dot_unstuff(&stuffed).unwrap(), normalized);
        }

        #[test]
        fn prop_stuffed_never_contains_bare_dot_line(body in "(\\.?[a-z ]{0,10}\r\n){0,5}") {
            let stuffed = dot_stuff(&body);
            let interior = &stuffed[..stuffed.len() - 3];
            for line in interior.split("\r\n") {
                prop_assert_ne!(line, ".");
            }
        }
    }
}

//! The simulator and the socket transport run one SMTP state machine.
//!
//! Each sender dialect makes a greylisted first attempt and a retry after
//! the delay twice: once through `smtp::exchange`, the lock-step loop
//! every experiment uses, and once over loopback TCP through
//! `smtp::tcp::serve_count` and `smtp::tcp::deliver_tcp`, each time against
//! a freshly built, identically configured `ReceivingMta`. Both paths use
//! client address 127.0.0.1 and the same virtual instants, so the delivery
//! outcomes, the per-session protocol counters, the anonymized server log
//! and the mailbox must come out equal.
//!
//! Each dialect sends two messages: one whose wire form round-trips, which
//! the simulator hands to the server as the shared message, and one whose
//! padded header and CRLF-bearing, LF-terminated body do not, which takes
//! the simulator through the dot-stuffed wire text as the socket does.

use spamward::analysis::log::LogRecord;
use spamward::botnet::MalwareFamily;
use spamward::greylist::{Greylist, GreylistConfig};
use spamward::mta::{ReceivingMta, RecipientPolicy, StoredMessage};
use spamward::sim::{ManualClock, SimDuration, SimTime};
use spamward::smtp::metrics::SessionMetrics;
use spamward::smtp::tcp::{deliver_tcp, serve_count};
use spamward::smtp::{
    exchange, ClientSession, DeliveryOutcome, Dialect, EmailAddress, Envelope, FailStage, Message,
    ServerSession,
};
use std::net::{Ipv4Addr, TcpListener};

const HOST: &str = "mx.diff.test";
const DELAY_SECS: u64 = 300;

/// The first attempt, then the retry once the greylist delay has passed.
const INSTANTS: [SimTime; 2] =
    [SimTime::from_secs(1_000), SimTime::from_secs(1_000 + DELAY_SECS + 60)];

/// What one path leaves behind.
#[derive(Debug, PartialEq)]
struct Run {
    outcomes: Vec<DeliveryOutcome>,
    sessions: Vec<SessionMetrics>,
    log: Vec<LogRecord>,
    mailbox: Vec<StoredMessage>,
}

/// A greylisting server for `diff.test`. Pregreet rejection stays off: the
/// socket client always reads the banner before it talks, so an early
/// talker only exists in the simulator, where the rejection would end its
/// session at the banner.
fn server() -> ReceivingMta {
    let config = GreylistConfig::with_delay(SimDuration::from_secs(DELAY_SECS));
    ReceivingMta::new(HOST, Ipv4Addr::LOCALHOST)
        .with_recipients(RecipientPolicy::Domain("diff.test".into()))
        .with_greylist(Greylist::new(config.without_auto_whitelist()))
}

fn address(text: &str) -> EmailAddress {
    text.parse().expect("test address")
}

/// The two messages: the first round-trips, the second does not.
fn messages() -> [Message; 2] {
    let round_trips = Message::builder()
        .header("Subject", "one state machine")
        .header("From", "sender@relay.example")
        .body("first line\n.a line that starts with a dot\n..two dots\nlast line")
        .build();
    let falls_back = Message::builder()
        .header("Subject", "  one state machine ")
        .header("From", "sender@relay.example")
        .body("first line\n.a line that starts with a dot\n..two dots\r\nlast line\n")
        .build();
    [round_trips, falls_back]
}

fn client(dialect: &Dialect, message: &Message) -> ClientSession {
    let envelope = Envelope::builder()
        .client_ip(Ipv4Addr::LOCALHOST)
        .mail_from(address("Sender@Relay.Example"))
        .rcpt(address("Bob@DIFF.test"))
        .build();
    ClientSession::new(dialect.clone(), envelope, message.clone())
}

fn through_exchange(dialect: &Dialect, message: &Message) -> Run {
    let mut mta = server();
    let (mut outcomes, mut sessions) = (Vec::new(), Vec::new());
    for now in INSTANTS {
        let mut session = ServerSession::new(HOST, Ipv4Addr::LOCALHOST);
        let (outcome, _) = exchange(&mut client(dialect, message), &mut session, &mut mta, now);
        outcomes.push(outcome);
        sessions.push(*session.metrics());
    }
    Run { outcomes, sessions, log: mta.log().to_vec(), mailbox: mta.mailbox().to_vec() }
}

#[test]
fn simulator_and_socket_give_the_same_session() {
    // Threads stay inside the test body (lint rule C1).
    use std::thread;

    let [round_trips, falls_back] = messages();
    assert!(round_trips.wire_round_trips() && !falls_back.wire_round_trips());
    let dialects = std::iter::once(Dialect::compliant_mta("relay.example"))
        .chain(MalwareFamily::ALL.iter().map(|family| family.dialect()));
    for (dialect, message) in dialects.flat_map(|d| [(d.clone(), &round_trips), (d, &falls_back)]) {
        let simulated = through_exchange(&dialect, message);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local address");
        let server = thread::spawn(move || {
            let mut mta = server();
            let clock = ManualClock::new();
            let mut sessions = Vec::new();
            // One connection per instant: the clock moves only between them.
            for now in INSTANTS {
                clock.set(now);
                let served = serve_count(&listener, HOST, &mut mta, &clock, 1).expect("serve");
                sessions.extend(served.iter().map(|session| *session.metrics()));
            }
            (mta, sessions)
        });
        let outcomes: Vec<DeliveryOutcome> = INSTANTS
            .iter()
            .map(|_| deliver_tcp(addr, client(&dialect, message)).expect("client io"))
            .collect();
        let (mta, sessions) = server.join().expect("server thread");
        let socket =
            Run { outcomes, sessions, log: mta.log().to_vec(), mailbox: mta.mailbox().to_vec() };
        let handed_over = message.wire_round_trips();
        assert_eq!(simulated, socket, "dialect {}, handed over {handed_over}", dialect.name);

        // The pair exercises the greylist both ways: deferred, then passed
        // (one recipient, so a bot that gives up at its first deferred
        // recipient still registers the only triplet).
        assert!(
            matches!(
                simulated.outcomes[0],
                DeliveryOutcome::TempFailed { stage: FailStage::RcptTo, code: 450, .. }
            ),
            "dialect {}: {:?}",
            dialect.name,
            simulated.outcomes[0]
        );
        assert!(simulated.outcomes[1].is_delivered(), "dialect {}", dialect.name);
        assert_eq!(simulated.sessions.len(), 2);
        assert_eq!(simulated.mailbox.len(), 1);
        let stored = &simulated.mailbox[0];
        assert_eq!(stored.received_at, INSTANTS[1]);
        assert_eq!(stored.envelope.recipients(), [address("Bob@diff.test")]);
        assert_eq!(stored.message.header("subject"), Some("one state machine"));
        assert!(stored.message.body().contains("\n.a line that starts with a dot\n..two dots"));
    }
}

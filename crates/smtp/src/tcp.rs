//! Real-network transport: the same state machines over TCP.
//!
//! Everything else in the suite couples [`ClientSession`] and
//! [`ServerSession`] directly for simulation speed; this module runs them
//! over genuine sockets so the library doubles as a *working* SMTP
//! implementation — a greylisting server you can point `swaks` or a real
//! MTA at, and a client that can deliver to one.
//!
//! Time on the wire is real time: callers inject a [`Clock`] mapping it to
//! the virtual [`SimTime`](spamward_sim::SimTime) the policy layer expects — [`WallClock`] (the
//! workspace's one sanctioned host-clock reader, re-exported from
//! `spamward_sim::wall`) for real deployments, `ManualClock` for
//! deterministic tests.

use crate::client::{ClientAction, ClientSession, DeliveryOutcome};
use crate::reply::Reply;
use crate::server::{ServerPolicy, ServerSession};
use crate::wire::{dot_stuff, dot_unstuff};
use crate::Command;
use spamward_sim::Clock;
pub use spamward_sim::WallClock;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

fn write_reply(stream: &mut TcpStream, reply: &Reply) -> io::Result<()> {
    stream.write_all(reply.to_wire().as_bytes())?;
    stream.flush()
}

/// Reads one (possibly multi-line) reply from the server side of `reader`.
///
/// Every line but a `XYZ-` continuation line ends the reply, so a final
/// line that is only the code (`250`, which RFC 5321 §4.2 allows) ends it
/// too, and a malformed line is refused at once instead of waiting for more.
fn read_reply(reader: &mut impl BufRead) -> io::Result<Reply> {
    let mut wire = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        wire.push_str(line);
        wire.push_str("\r\n");
        if line.as_bytes().get(3) != Some(&b'-') {
            break;
        }
    }
    Reply::from_wire(&wire)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad reply {wire:?}")))
}

/// Serves exactly one SMTP connection on `stream` with the given policy.
///
/// Returns the finished [`ServerSession`] when the client quits or
/// disconnects; accepted mail went to `policy`'s
/// [`ServerPolicy::on_accepted`].
///
/// # Errors
///
/// Propagates socket I/O errors; a client that just drops the connection
/// mid-session is *not* an error (fire-and-forget bots do exactly that).
pub fn serve_connection(
    mut stream: TcpStream,
    hostname: &str,
    policy: &mut dyn ServerPolicy,
    clock: &dyn Clock,
) -> io::Result<ServerSession> {
    let peer = match stream.peer_addr()? {
        SocketAddr::V4(a) => *a.ip(),
        SocketAddr::V6(_) => std::net::Ipv4Addr::LOCALHOST, // v6 loopback in tests
    };
    let mut session = ServerSession::new(hostname, peer);
    let banner = session.open(clock.now(), policy);
    write_reply(&mut stream, &banner)?;
    if session.is_closed() {
        return Ok(session);
    }

    let mut reader = BufReader::new(stream.try_clone()?);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            // Peer hung up without QUIT.
            return Ok(session);
        }
        let cmd = Command::parse(&line);
        let reply = session.handle(clock.now(), &cmd, policy);
        let wants_data = reply.is_intermediate();
        write_reply(&mut stream, &reply)?;
        if wants_data {
            // Collect dot-stuffed body until the terminator line.
            let mut body_wire = String::new();
            loop {
                let mut body_line = String::new();
                if reader.read_line(&mut body_line)? == 0 {
                    return Ok(session);
                }
                let trimmed = body_line.trim_end_matches(['\r', '\n']);
                body_wire.push_str(trimmed);
                body_wire.push_str("\r\n");
                if trimmed == "." {
                    break;
                }
            }
            let unstuffed = dot_unstuff(&body_wire).unwrap_or_default();
            let reply = session.handle_data_body(clock.now(), &unstuffed, policy);
            write_reply(&mut stream, &reply)?;
        }
        if session.is_closed() {
            return Ok(session);
        }
    }
}

/// Accepts and serves `connections` sessions on `listener`, sequentially,
/// and returns the sessions that finished without an I/O error.
///
/// A tiny single-threaded driver for tests and demos; production servers
/// would thread per connection around [`serve_connection`]. One client's
/// I/O error (e.g. a command line that is not UTF-8) ends only its own
/// session: it counts toward `connections`, is left out of the result,
/// and the next client is served.
///
/// # Errors
///
/// Propagates accept errors.
pub fn serve_count(
    listener: &TcpListener,
    hostname: &str,
    policy: &mut dyn ServerPolicy,
    clock: &dyn Clock,
    connections: usize,
) -> io::Result<Vec<ServerSession>> {
    let mut sessions = Vec::with_capacity(connections);
    for _ in 0..connections {
        let (stream, _) = listener.accept()?;
        if let Ok(session) = serve_connection(stream, hostname, policy, clock) {
            sessions.push(session);
        }
    }
    Ok(sessions)
}

/// Runs one delivery attempt over TCP, driving `client` against the server
/// at `addr`.
///
/// # Errors
///
/// Propagates connection and socket I/O errors; SMTP-level failures are
/// reported through the returned [`DeliveryOutcome`] instead.
pub fn deliver_tcp(addr: SocketAddr, mut client: ClientSession) -> io::Result<DeliveryOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut reply = read_reply(&mut reader)?;
    loop {
        match client.on_reply(&reply) {
            ClientAction::Send(cmd) => {
                stream.write_all(cmd.to_wire().as_bytes())?;
                stream.flush()?;
                reply = read_reply(&mut reader)?;
            }
            ClientAction::SendBody(message) => {
                stream.write_all(dot_stuff(message.to_wire()).as_bytes())?;
                stream.flush()?;
                reply = read_reply(&mut reader)?;
            }
            ClientAction::Close(outcome) => return Ok(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ReversePath;
    use crate::dialect::Dialect;
    use crate::envelope::Envelope;
    use crate::message::Message;
    use crate::server::{KeepAccepted, PolicyDecision, Transaction};
    use spamward_sim::SimTime;
    use std::net::Ipv4Addr;
    use std::thread;

    fn envelope(rcpt: &str) -> Envelope {
        Envelope::builder()
            .client_ip(Ipv4Addr::LOCALHOST)
            .helo("client.local")
            .mail_from(ReversePath::Address("alice@relay.example".parse().unwrap()))
            .rcpt(rcpt.parse().unwrap())
            .build()
    }

    fn message() -> Message {
        Message::builder()
            .header("Subject", "over tcp")
            .body("real sockets\n.leading dot line")
            .build()
    }

    #[test]
    fn delivers_over_real_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut policy = KeepAccepted::default();
            let clock = WallClock::new();
            let sessions =
                serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 1).expect("serve");
            (sessions, policy.0)
        });

        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        let outcome = deliver_tcp(addr, client).expect("client io");
        assert!(outcome.is_delivered(), "{outcome:?}");

        let (sessions, accepted) = server.join().expect("server thread");
        assert_eq!(sessions.len(), 1);
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted[0].1.header("subject"), Some("over tcp"));
        // Dot-stuffing survived the real wire.
        assert!(accepted[0].1.body().contains(".leading dot line"));
    }

    struct GreylistOnce {
        rejected: usize,
    }
    impl ServerPolicy for GreylistOnce {
        fn on_rcpt(
            &mut self,
            _: SimTime,
            _: &Transaction,
            _: &crate::address::EmailAddress,
        ) -> PolicyDecision {
            if self.rejected == 0 {
                self.rejected += 1;
                PolicyDecision::TempFail(Reply::greylisted(1))
            } else {
                PolicyDecision::Accept
            }
        }
    }

    #[test]
    fn greylisting_works_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut policy = GreylistOnce { rejected: 0 };
            let clock = WallClock::new();
            serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 2).expect("serve")
        });

        // First attempt: deferred.
        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        let first = deliver_tcp(addr, client).expect("client io");
        assert!(!first.is_delivered());
        assert!(first.is_retryable());

        // Retry: accepted.
        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        let second = deliver_tcp(addr, client).expect("client io");
        assert!(second.is_delivered());
        server.join().expect("server thread");
    }

    #[test]
    fn bot_dropping_connection_is_not_a_server_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            struct RejectRcpt;
            impl ServerPolicy for RejectRcpt {
                fn on_rcpt(
                    &mut self,
                    _: SimTime,
                    _: &Transaction,
                    _: &crate::address::EmailAddress,
                ) -> PolicyDecision {
                    PolicyDecision::TempFail(Reply::greylisted(300))
                }
            }
            let mut policy = RejectRcpt;
            let clock = WallClock::new();
            serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 1).expect("serve")
        });

        // A fire-and-forget bot hangs up as soon as the RCPT is deferred.
        let client =
            ClientSession::new(Dialect::minimal_bot("bot"), envelope("user@tcp.test"), message());
        let outcome = deliver_tcp(addr, client).expect("client io");
        assert!(!outcome.is_delivered());
        let sessions = server.join().expect("server must survive the rude client");
        // No DATA ever started, so nothing was accepted.
        assert_eq!(sessions[0].metrics().replies_3xx, 0);
    }

    #[test]
    fn a_non_utf8_client_does_not_stop_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut policy = KeepAccepted::default();
            let clock = WallClock::new();
            let sessions =
                serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 2).expect("serve");
            (sessions, policy.0)
        });

        // The first client's MAIL FROM is not UTF-8, so the server's line
        // read fails with InvalidData and that session ends.
        let mut bad = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(bad.try_clone().expect("clone"));
        read_reply(&mut reader).expect("banner");
        bad.write_all(b"EHLO bad.example\r\n").expect("send EHLO");
        read_reply(&mut reader).expect("EHLO reply");
        bad.write_all(b"MAIL FROM:<a@\xff\xfe.example>\r\n").expect("send MAIL");
        drop((bad, reader));

        // The server keeps accepting: the next, compliant client delivers.
        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        let outcome = deliver_tcp(addr, client).expect("client io");
        assert!(outcome.is_delivered(), "{outcome:?}");
        let (sessions, accepted) = server.join().expect("server survives the bad client");
        assert_eq!(sessions.len(), 1, "only the clean session is returned");
        assert_eq!(accepted.len(), 1);
    }

    /// A scripted server that answers with bare reply codes, which RFC
    /// 5321 §4.2 allows (`Reply-code [ SP textstring ] CRLF`), and returns
    /// the commands it heard.
    fn serve_bare_codes(listener: TcpListener) -> io::Result<Vec<String>> {
        let (mut stream, _) = listener.accept()?;
        // A client still waiting for the rest of a reply would hang the
        // test; drop it instead, so its read fails.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        stream.write_all(b"220\r\n")?;
        let mut commands = Vec::new();
        let mut in_body = false;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Ok(commands);
            }
            let line = line.trim_end();
            if in_body {
                if line == "." {
                    in_body = false;
                    stream.write_all(b"250\r\n")?;
                }
                continue;
            }
            commands.push(line.to_owned());
            let answer: &[u8] = match line {
                "EHLO relay.example" => b"250-mx.bare.test\r\n250\r\n",
                "DATA" => {
                    in_body = true;
                    b"354\r\n"
                }
                "QUIT" => b"221\r\n",
                _ => b"250\r\n",
            };
            stream.write_all(answer)?;
            if line == "QUIT" {
                return Ok(commands);
            }
        }
    }

    #[test]
    fn replies_that_are_only_a_code_end_the_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || serve_bare_codes(listener));

        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@bare.test"),
            message(),
        );
        let outcome = deliver_tcp(addr, client).expect("bare-code replies are complete replies");
        assert!(outcome.is_delivered(), "{outcome:?}");
        let commands = server.join().expect("server thread").expect("server io");
        assert_eq!(
            commands,
            [
                "EHLO relay.example",
                "MAIL FROM:<alice@relay.example>",
                "RCPT TO:<user@bare.test>",
                "DATA",
                "QUIT"
            ]
        );
    }

    #[test]
    fn wall_clock_advances() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}

//! Byte-level pins of the SMTP values' observable forms.
//!
//! Every `Reply` constructor and the server's fixed replies are pinned to
//! their exact wire bytes and `Display` text, the replies a session builds
//! from shared parts also to their `lines()` and to equality and hashing
//! with the same reply parsed back from its wire form, and `EmailAddress` and
//! `Message` are compared, property by property, with oracles that keep
//! the plain two-`String` and `Vec`-of-`String` representations and their
//! renderers. A change to how these values are stored must leave every
//! assertion here standing with the same literals.

use proptest::prelude::*;
use spamward_sim::SimTime;
use spamward_smtp::reply::codes;
use spamward_smtp::{
    AcceptAll, Capabilities, Command, EmailAddress, Message, ParseAddressError, Reply,
    ServerSession,
};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn pin(reply: &Reply, wire: &str, display: &str) {
    assert_eq!(reply.to_wire(), wire, "wire bytes of {reply:?}");
    assert_eq!(reply.to_string(), display, "Display of {reply:?}");
}

#[test]
fn every_reply_constructor_renders_pinned_bytes() {
    let table: Vec<(Reply, &str, &str)> = vec![
        (
            Reply::banner("mx.foo.net"),
            "220 mx.foo.net ESMTP spamward\r\n",
            "220 mx.foo.net ESMTP spamward",
        ),
        (
            Reply::hello("mx.foo.net", "relay.example"),
            "250 mx.foo.net Hello relay.example, I am glad to meet you\r\n",
            "250 mx.foo.net Hello relay.example, I am glad to meet you",
        ),
        (Reply::ok(), "250 OK\r\n", "250 OK"),
        (
            Reply::start_mail_input(),
            "354 End data with <CR><LF>.<CR><LF>\r\n",
            "354 End data with <CR><LF>.<CR><LF>",
        ),
        (
            Reply::greylisted(300),
            "450 4.2.0 Greylisted, see http://postgrey.schweikert.ch/ (retry in 300s)\r\n",
            "450 4.2.0 Greylisted, see http://postgrey.schweikert.ch/ (retry in 300s)",
        ),
        (
            Reply::service_unavailable("mx.foo.net"),
            "421 mx.foo.net Service not available, closing transmission channel\r\n",
            "421 mx.foo.net Service not available, closing transmission channel",
        ),
        (Reply::no_such_user(), "550 5.1.1 No such user here\r\n", "550 5.1.1 No such user here"),
        (
            Reply::rejected_policy("listed at dnsbl.example"),
            "550 5.7.1 listed at dnsbl.example\r\n",
            "550 5.7.1 listed at dnsbl.example",
        ),
        (
            Reply::bye("mx.foo.net"),
            "221 mx.foo.net Service closing transmission channel\r\n",
            "221 mx.foo.net Service closing transmission channel",
        ),
        (
            Reply::unrecognized(),
            "500 5.5.2 Error: command not recognized\r\n",
            "500 5.5.2 Error: command not recognized",
        ),
        (
            Reply::bad_sequence(),
            "503 5.5.1 Error: bad sequence of commands\r\n",
            "503 5.5.1 Error: bad sequence of commands",
        ),
        (
            Reply::bad_syntax(),
            "501 5.5.4 Error: syntax error in parameters\r\n",
            "501 5.5.4 Error: syntax error in parameters",
        ),
        (
            Reply::cannot_verify(),
            "252 2.1.5 Cannot VRFY user, but will accept message\r\n",
            "252 2.1.5 Cannot VRFY user, but will accept message",
        ),
        (Reply::single(codes::OK, "queued"), "250 queued\r\n", "250 queued"),
        (Reply::single(codes::OK, String::from("owned")), "250 owned\r\n", "250 owned"),
        (
            Reply::new(codes::OK, vec!["first".into(), "second".into(), "third".into()]),
            "250-first\r\n250-second\r\n250 third\r\n",
            "250 first / second / third",
        ),
    ];
    for (reply, wire, display) in &table {
        pin(reply, wire, display);
    }
}

const NOW: SimTime = SimTime::ZERO;

fn session(caps: Capabilities) -> ServerSession {
    let mut s =
        ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9)).with_capabilities(caps);
    pin(
        &s.open(NOW, &mut AcceptAll),
        "220 mx.foo.net ESMTP spamward\r\n",
        "220 mx.foo.net ESMTP spamward",
    );
    s
}

fn handle(s: &mut ServerSession, line: &str) -> Reply {
    s.handle(NOW, &Command::parse(line), &mut AcceptAll)
}

#[test]
fn server_greeting_replies_render_pinned_bytes() {
    let mut s = session(Capabilities::default());
    pin(
        &handle(&mut s, "HELO relay.example"),
        "250 mx.foo.net Hello relay.example, I am glad to meet you\r\n",
        "250 mx.foo.net Hello relay.example, I am glad to meet you",
    );
    pin(
        &handle(&mut s, "EHLO relay.example"),
        "250-mx.foo.net Hello relay.example\r\n250-PIPELINING\r\n250-SIZE 10485760\r\n\
         250-8BITMIME\r\n250 ENHANCEDSTATUSCODES\r\n",
        "250 mx.foo.net Hello relay.example / PIPELINING / SIZE 10485760 / 8BITMIME / \
         ENHANCEDSTATUSCODES",
    );

    let mut s = session(Capabilities::none());
    pin(
        &handle(&mut s, "EHLO relay.example"),
        "250 mx.foo.net Hello relay.example\r\n",
        "250 mx.foo.net Hello relay.example",
    );

    let mut s = session(Capabilities { starttls: true, ..Capabilities::default() });
    pin(
        &handle(&mut s, "EHLO relay.example"),
        "250-mx.foo.net Hello relay.example\r\n250-PIPELINING\r\n250-SIZE 10485760\r\n\
         250-8BITMIME\r\n250-STARTTLS\r\n250 ENHANCEDSTATUSCODES\r\n",
        "250 mx.foo.net Hello relay.example / PIPELINING / SIZE 10485760 / 8BITMIME / \
         STARTTLS / ENHANCEDSTATUSCODES",
    );
    pin(
        &handle(&mut s, "STARTTLS"),
        "454 4.7.0 TLS not available due to local problem\r\n",
        "454 4.7.0 TLS not available due to local problem",
    );
}

#[test]
fn server_transaction_replies_render_pinned_bytes() {
    let mut s = session(Capabilities { size_limit: Some(1_000), ..Capabilities::default() });
    pin(
        &handle(&mut s, "STARTTLS"),
        "502 5.5.1 STARTTLS not offered\r\n",
        "502 5.5.1 STARTTLS not offered",
    );
    pin(
        &handle(&mut s, "RCPT TO:<x@foo.net>"),
        "503 5.5.1 Error: bad sequence of commands\r\n",
        "503 5.5.1 Error: bad sequence of commands",
    );
    handle(&mut s, "EHLO relay.example");
    pin(
        &handle(&mut s, "MAIL FROM:<a@b.cc> SIZE=5000"),
        "552 5.3.4 Message size exceeds fixed maximum message size\r\n",
        "552 5.3.4 Message size exceeds fixed maximum message size",
    );
    pin(&handle(&mut s, "MAIL FROM:<a@b.cc>"), "250 OK\r\n", "250 OK");
    pin(&handle(&mut s, "RCPT TO:<x@foo.net>"), "250 OK\r\n", "250 OK");
    pin(
        &handle(&mut s, "DATA"),
        "354 End data with <CR><LF>.<CR><LF>\r\n",
        "354 End data with <CR><LF>.<CR><LF>",
    );
    pin(
        &s.handle_data_body(NOW, "Subject: s\r\n\r\nbody\r\n", &mut AcceptAll),
        "250 2.0.0 OK: queued\r\n",
        "250 2.0.0 OK: queued",
    );
    pin(
        &handle(&mut s, "VRFY root"),
        "252 2.1.5 Cannot VRFY user, but will accept message\r\n",
        "252 2.1.5 Cannot VRFY user, but will accept message",
    );
    pin(
        &handle(&mut s, "FROBNICATE"),
        "500 5.5.2 Error: command not recognized\r\n",
        "500 5.5.2 Error: command not recognized",
    );
    pin(
        &handle(&mut s, "QUIT"),
        "221 mx.foo.net Service closing transmission channel\r\n",
        "221 mx.foo.net Service closing transmission channel",
    );
}

/// Pins a reply built from parts through every reading: wire bytes,
/// `Display`, `lines()`, and equality, hashing and capabilities against
/// the same reply parsed back from those wire bytes.
fn pin_parts(reply: &Reply, wire: &str, display: &str, lines: &[&str]) {
    pin(reply, wire, display);
    assert_eq!(reply.lines(), lines, "lines of {reply:?}");
    let Some(parsed) = Reply::from_wire(&reply.to_wire()) else {
        panic!("{reply:?} does not parse back from its wire form");
    };
    pin(&parsed, wire, display);
    assert_eq!(parsed.lines(), lines);
    assert_eq!(&parsed, reply);
    assert_eq!(reply, &parsed);
    assert_eq!(hash_of(&parsed), hash_of(reply), "hash of {reply:?}");
    assert_eq!(parsed.capabilities(), reply.capabilities(), "capabilities of {reply:?}");
}

#[test]
fn replies_built_from_shared_parts_render_pinned_bytes() {
    const BANNER: &str = "mx.foo.net ESMTP spamward";
    const HELLO: &str = "mx.foo.net Hello relay.example, I am glad to meet you";
    const BYE: &str = "mx.foo.net Service closing transmission channel";
    const GREYLISTED: &str = "4.2.0 Greylisted, see http://postgrey.schweikert.ch/ (retry in 300s)";
    let host: Arc<str> = "mx.foo.net".into();
    let peer: Arc<str> = "relay.example".into();

    let mut s = session(Capabilities::default());
    let banner = Reply::banner(Arc::clone(&host));
    pin_parts(&banner, &format!("220 {BANNER}\r\n"), &format!("220 {BANNER}"), &[BANNER]);
    pin_parts(&Reply::banner("mx.foo.net"), &banner.to_wire(), &banner.to_string(), &[BANNER]);

    let hello = Reply::hello(Arc::clone(&host), Arc::clone(&peer));
    pin_parts(&hello, &format!("250 {HELLO}\r\n"), &format!("250 {HELLO}"), &[HELLO]);
    pin_parts(
        &handle(&mut s, "HELO relay.example"),
        &hello.to_wire(),
        &hello.to_string(),
        &[HELLO],
    );

    let ehlo_lines = [
        "mx.foo.net Hello relay.example",
        "PIPELINING",
        "SIZE 10485760",
        "8BITMIME",
        "ENHANCEDSTATUSCODES",
    ];
    let ehlo_wire = "250-mx.foo.net Hello relay.example\r\n250-PIPELINING\r\n250-SIZE 10485760\r\n\
                     250-8BITMIME\r\n250 ENHANCEDSTATUSCODES\r\n";
    let ehlo_display = "250 mx.foo.net Hello relay.example / PIPELINING / SIZE 10485760 / \
                        8BITMIME / ENHANCEDSTATUSCODES";
    let ehlo = Reply::ehlo(Arc::clone(&host), Arc::clone(&peer), Capabilities::default());
    pin_parts(&ehlo, ehlo_wire, ehlo_display, &ehlo_lines);
    pin_parts(&handle(&mut s, "EHLO relay.example"), ehlo_wire, ehlo_display, &ehlo_lines);
    assert_eq!(ehlo.capabilities(), Capabilities::default());

    let bare = Reply::ehlo(Arc::clone(&host), Arc::clone(&peer), Capabilities::none());
    let bare_line = "mx.foo.net Hello relay.example";
    pin_parts(&bare, &format!("250 {bare_line}\r\n"), &format!("250 {bare_line}"), &[bare_line]);
    let caps = Capabilities { size_limit: Some(1_000), starttls: true, ..Capabilities::default() };
    pin_parts(
        &Reply::ehlo(Arc::clone(&host), Arc::clone(&peer), caps),
        "250-mx.foo.net Hello relay.example\r\n250-PIPELINING\r\n250-SIZE 1000\r\n\
         250-8BITMIME\r\n250-STARTTLS\r\n250 ENHANCEDSTATUSCODES\r\n",
        "250 mx.foo.net Hello relay.example / PIPELINING / SIZE 1000 / 8BITMIME / STARTTLS / \
         ENHANCEDSTATUSCODES",
        &[bare_line, "PIPELINING", "SIZE 1000", "8BITMIME", "STARTTLS", "ENHANCEDSTATUSCODES"],
    );

    let greylisted = Reply::greylisted(300);
    let (grey_wire, grey_display) = (format!("450 {GREYLISTED}\r\n"), format!("450 {GREYLISTED}"));
    pin_parts(&greylisted, &grey_wire, &grey_display, &[GREYLISTED]);

    let bye = Reply::bye(Arc::clone(&host));
    pin_parts(&bye, &format!("221 {BYE}\r\n"), &format!("221 {BYE}"), &[BYE]);
    pin_parts(&handle(&mut s, "QUIT"), &bye.to_wire(), &bye.to_string(), &[BYE]);
    let closing = "mx.foo.net Service not available, closing transmission channel";
    pin_parts(
        &Reply::service_unavailable(Arc::clone(&host)),
        &format!("421 {closing}\r\n"),
        &format!("421 {closing}"),
        &[closing],
    );
}

/// The address as two owned strings, with the parser and renderers the
/// representation had when these pins were written.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct OracleAddress {
    local: String,
    domain: String,
}

impl OracleAddress {
    fn parse(s: &str) -> Result<Self, ParseAddressError> {
        let s = s.trim();
        let s = s.strip_prefix('<').and_then(|r| r.strip_suffix('>')).unwrap_or(s);
        let (local, domain) = s.rsplit_once('@').ok_or(ParseAddressError::MissingAt)?;
        if local.is_empty()
            || local.len() > 64
            || !local
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "!#$%&'*+-/=?^_`{|}~.".contains(c))
            || local.starts_with('.')
            || local.ends_with('.')
            || local.contains("..")
        {
            return Err(ParseAddressError::BadLocalPart);
        }
        if domain.is_empty()
            || domain.len() > 253
            || !domain.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.')
            || domain.starts_with('.')
            || domain.ends_with('.')
            || domain.contains("..")
        {
            return Err(ParseAddressError::BadDomain);
        }
        Ok(OracleAddress { local: local.to_owned(), domain: domain.to_ascii_lowercase() })
    }

    fn display(&self) -> String {
        format!("{}@{}", self.local, self.domain)
    }

    fn to_path(&self) -> String {
        format!("<{}>", self.display())
    }

    fn normalized(&self) -> String {
        format!("{}@{}", self.local.to_ascii_lowercase(), self.domain)
    }
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Parses `text` both ways and checks the accessors and renderers agree.
fn same_parse(text: &str) -> Result<Option<(EmailAddress, OracleAddress)>, TestCaseError> {
    match (EmailAddress::parse(text), OracleAddress::parse(text)) {
        (Ok(a), Ok(o)) => {
            prop_assert_eq!(a.local_part(), o.local.as_str());
            prop_assert_eq!(a.domain(), o.domain.as_str());
            prop_assert_eq!(a.to_string(), o.display());
            prop_assert_eq!(a.to_path(), o.to_path());
            prop_assert_eq!(a.normalized(), o.normalized());
            prop_assert_eq!(&a, &a.clone());
            Ok(Some((a, o)))
        }
        (Err(e), Err(oe)) => {
            prop_assert_eq!(e, oe);
            Ok(None)
        }
        (a, o) => Err(TestCaseError::fail(format!("{text:?}: {a:?} but the oracle gives {o:?}"))),
    }
}

/// Checks that `Ord`, `Eq` and `Hash` on two parsed addresses agree with
/// the oracle's derived ones.
fn same_order(
    a: &EmailAddress,
    oa: &OracleAddress,
    b: &EmailAddress,
    ob: &OracleAddress,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cmp(b), oa.cmp(ob));
    prop_assert_eq!(a.partial_cmp(b), Some(oa.cmp(ob)));
    prop_assert_eq!(a == b, oa == ob);
    if a == b {
        prop_assert_eq!(hash_of(a), hash_of(b));
    }
    Ok(())
}

#[test]
fn address_order_is_by_parts_not_by_joined_text() {
    let a: EmailAddress = "a@z".parse().unwrap();
    let b: EmailAddress = "a.b@c".parse().unwrap();
    // By parts `a` < `a.b`; by joined text "a@z" > "a.b@c" ('@' > '.').
    assert_eq!(a.cmp(&b), Ordering::Less);
    assert!("a@z" > "a.b@c");
    let upper: EmailAddress = "A@Example.COM".parse().unwrap();
    let lower: EmailAddress = "A@example.com".parse().unwrap();
    assert_eq!(upper, lower);
    assert_eq!(hash_of(&upper), hash_of(&lower));
    assert_ne!(upper, "a@example.com".parse::<EmailAddress>().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_address_matches_two_string_oracle(
        lead in "( |<)?",
        local in "[a-cA-C.+_-]{0,5}",
        at in "@|@@|",
        domain in "[a-cA-Cz.-]{0,6}",
        tail in "( |>)?",
        other_local in "[a-cA-C.]{1,4}",
        other_domain in "[a-cA-Cz.]{1,4}",
    ) {
        let text = format!("{lead}{local}{at}{domain}{tail}");
        let parsed = same_parse(&text)?;
        let other = same_parse(&format!("{other_local}@{other_domain}"))?;
        if let (Some((a, oa)), Some((b, ob))) = (&parsed, &other) {
            same_order(a, oa, b, ob)?;
            same_order(b, ob, a, oa)?;
            same_order(a, oa, a, oa)?;
        }
    }

    #[test]
    fn prop_address_order_over_short_parts(
        l1 in "[ab.]{1,3}", d1 in "[abz.]{1,3}", l2 in "[ab.]{1,3}", d2 in "[abzAB.]{1,3}",
    ) {
        let first = same_parse(&format!("{l1}@{d1}"))?;
        let second = same_parse(&format!("{l2}@{d2}"))?;
        if let (Some((a, oa)), Some((b, ob))) = (&first, &second) {
            same_order(a, oa, b, ob)?;
        }
    }
}

/// The message as ordered owned headers and an owned body, with the wire
/// renderer, digest and parser the representation had when these pins
/// were written.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OracleMessage {
    headers: Vec<(String, String)>,
    body: String,
}

impl OracleMessage {
    fn to_wire(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        for line in self.body.split('\n') {
            out.push_str(line.trim_end_matches('\r'));
            out.push_str("\r\n");
        }
        out
    }

    fn size(&self) -> usize {
        self.to_wire().len()
    }

    fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_wire().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    fn from_wire(s: &str) -> Option<Self> {
        let mut headers = Vec::new();
        let mut lines = s.split("\r\n");
        for line in lines.by_ref() {
            if line.is_empty() {
                let body_lines: Vec<&str> = lines.collect();
                let mut body = body_lines.join("\r\n");
                if let Some(stripped) = body.strip_suffix("\r\n") {
                    body = stripped.to_owned();
                }
                while body.ends_with("\r\n") {
                    body.truncate(body.len() - 2);
                }
                let body = body.trim_end_matches("\r\n").replace("\r\n", "\n");
                return Some(OracleMessage { headers, body });
            }
            let (name, value) = line.split_once(':')?;
            headers.push((name.trim().to_owned(), value.trim().to_owned()));
        }
        None
    }
}

fn build(headers: &[(String, String)], body: &str) -> (Message, OracleMessage) {
    let mut builder = Message::builder();
    for (name, value) in headers {
        builder = builder.header(name, value);
    }
    let oracle = OracleMessage { headers: headers.to_vec(), body: body.to_owned() };
    (builder.body(body).build(), oracle)
}

/// Checks a message against its oracle: accessors, wire form, size and
/// digest, in an order that reads the cached wire form before and after
/// the other accessors.
fn same_message(m: &Message, o: &OracleMessage) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.size(), o.size());
    prop_assert_eq!(m.body(), o.body.as_str());
    prop_assert_eq!(m.headers().len(), o.headers.len());
    for (i, (name, value)) in o.headers.iter().enumerate() {
        prop_assert_eq!(m.headers()[i].0.as_str(), name.as_str());
        prop_assert_eq!(m.headers()[i].1.as_str(), value.as_str());
        let first =
            o.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str());
        prop_assert_eq!(m.header(name), first);
    }
    prop_assert_eq!(m.to_wire(), o.to_wire());
    prop_assert_eq!(m.digest(), o.digest());
    prop_assert_eq!(m.size(), o.size());
    let shown = format!(
        "<message {} headers, {} body bytes, digest {:016x}>",
        o.headers.len(),
        o.body.len(),
        o.digest()
    );
    prop_assert_eq!(m.to_string(), shown);
    Ok(())
}

/// Parses `wire` both ways and checks the results agree.
fn same_from_wire(wire: &str) -> Result<(), TestCaseError> {
    match (Message::from_wire(wire), OracleMessage::from_wire(wire)) {
        (Some(m), Some(o)) => same_message(&m, &o),
        (None, None) => Ok(()),
        (m, o) => Err(TestCaseError::fail(format!("{wire:?}: {m:?} but the oracle gives {o:?}"))),
    }
}

#[test]
fn message_wire_form_is_pinned() {
    let (m, o) = build(
        &[("Subject".into(), "  padded  ".into()), ("From".into(), "a@b.cc".into())],
        ".leading dot\nbare lf\r\ncrlf\n\n",
    );
    assert_eq!(
        m.to_wire(),
        "Subject:   padded  \r\nFrom: a@b.cc\r\n\r\n.leading dot\r\nbare lf\r\ncrlf\r\n\r\n\r\n"
    );
    assert_eq!(m.size(), 70);
    assert_eq!(m.to_wire(), o.to_wire());
    assert_eq!(m.digest(), o.digest());
    let wire: String = m.to_wire().into();
    let back = Message::from_wire(&wire).unwrap();
    assert_eq!(back.header("subject"), Some("padded"));
    assert_eq!(back.body(), ".leading dot\nbare lf\ncrlf");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_message_matches_renderer_oracle(
        names in proptest::collection::vec("[A-Za-z-]{1,8}", 0..4),
        values in proptest::collection::vec(" {0,2}[a-zA-Z0-9:.@ ]{0,10} {0,2}", 4),
        body in "(\\.{0,2}[a-z .]{0,8}(\r\n|\n|\r|\r\r\n)?){0,5}",
        other_body in "(\\.?[a-z]{0,3}\n?){0,2}",
    ) {
        let headers: Vec<(String, String)> =
            names.iter().zip(&values).map(|(n, v)| (n.clone(), v.clone())).collect();
        let (m, o) = build(&headers, &body);
        same_message(&m, &o)?;
        same_message(&m.clone(), &o)?;
        let wire: String = m.to_wire().into();
        same_from_wire(&wire)?;
        let parsed = Message::from_wire(&wire);
        let oracle_parsed = OracleMessage::from_wire(&wire);
        prop_assert_eq!(parsed.as_ref() == Some(&m), oracle_parsed.as_ref() == Some(&o));

        // Equality and hashing follow the headers and body.
        let (n, on) = build(&headers, &other_body);
        prop_assert_eq!(m == n, o == on);
        if m == n {
            prop_assert_eq!(hash_of(&m), hash_of(&n));
        }
        // A message whose wire form was read compares equal to a fresh one.
        let (fresh, _) = build(&headers, &body);
        prop_assert_eq!(&m, &fresh);
        prop_assert_eq!(hash_of(&m), hash_of(&fresh));
    }

    #[test]
    fn prop_from_wire_matches_parser_oracle(
        head in "([A-Za-z]{0,4}:? {0,2}[a-z ]{0,4}\r\n){0,3}[A-Za-z]{0,2}:?",
        sep in "(\r\n)?(\r\n)?",
        body in "(\\.?[a-z\r]{0,4}(\r\n|\n|\r)?){0,4}(\r\n){0,3}",
    ) {
        same_from_wire(&format!("{head}{sep}{body}"))?;
    }
}

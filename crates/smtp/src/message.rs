//! RFC 5322 messages (the minimal subset the experiments move).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// An email message: ordered headers and a body.
///
/// The greylisting experiments deliberately resend *identical* messages
/// (the paper's one-spam-task control relies on comparing them), so
/// messages implement `Eq`/`Hash` and expose a stable [`Message::digest`].
///
/// The headers and body sit behind one [`Arc`], so a clone (into a
/// delivery attempt, a retry or a mailbox entry) is a refcount bump. The
/// wire form is rendered on first use of [`Message::to_wire`] or
/// [`Message::digest`] and kept, so every later attempt with a clone of
/// the message reads it back instead; [`Message::size`] counts it without
/// rendering it.
///
/// # Example
///
/// ```
/// use spamward_smtp::Message;
/// let m = Message::builder()
///     .header("Subject", "Cheap pills")
///     .header("From", "spam@botnet.example")
///     .body("Buy now!")
///     .build();
/// assert_eq!(m.header("subject"), Some("Cheap pills"));
/// ```
#[derive(Clone)]
pub struct Message {
    inner: Arc<Content>,
}

/// What a [`Message`] shares between its clones.
struct Content {
    headers: Vec<(String, String)>,
    body: String,
    /// The wire form, rendered once on first use.
    wire: OnceLock<String>,
}

impl Message {
    fn new(headers: Vec<(String, String)>, body: String) -> Self {
        Message { inner: Arc::new(Content { headers, body, wire: OnceLock::new() }) }
    }

    /// Starts building a message.
    pub fn builder() -> MessageBuilder {
        MessageBuilder::default()
    }

    /// The headers in order.
    pub fn headers(&self) -> &[(String, String)] {
        &self.inner.headers
    }

    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers().iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The message body.
    pub fn body(&self) -> &str {
        &self.inner.body
    }

    /// Byte size of the wire form (used for SIZE accounting), counted
    /// without rendering it.
    pub fn size(&self) -> usize {
        if let Some(wire) = self.inner.wire.get() {
            return wire.len();
        }
        let headers: usize =
            self.headers().iter().map(|(name, value)| name.len() + value.len() + 4).sum();
        let body: usize =
            self.body().split('\n').map(|line| line.trim_end_matches('\r').len() + 2).sum();
        headers + 2 + body
    }

    /// Whether the DATA round trip gives this message back: its wire form,
    /// dot-stuffed, unstuffed and parsed with [`Message::from_wire`],
    /// equals it. A byte scan that holds when no header name or value
    /// carries a CR or LF, no name a `:`, neither has whitespace at either
    /// end (the parser trims both), and the body carries no CR and does not
    /// end in LF (the parser drops trailing line ends). It can refuse a
    /// message that would round-trip, never the reverse.
    pub fn wire_round_trips(&self) -> bool {
        let plain = |text: &str| {
            !text.bytes().any(|b| b == b'\r' || b == b'\n') && text.trim().len() == text.len()
        };
        let body = self.body();
        self.headers()
            .iter()
            .all(|(name, value)| !name.contains(':') && plain(name) && plain(value))
            && !body.contains('\r')
            && !body.ends_with('\n')
    }

    /// Byte size of the dot-stuffed wire form ([`crate::dot_stuff`] of
    /// [`Message::to_wire`]), counted without rendering either. Exact when
    /// [`Message::wire_round_trips`] holds: every wire line is then one
    /// header or one body line, and each that starts with `.` gains one.
    pub(crate) fn stuffed_len(&self) -> usize {
        let dotted_headers = self.headers().iter().filter(|(name, _)| name.starts_with('.'));
        let dotted_lines = self.body().split('\n').filter(|line| line.starts_with('.'));
        self.size() + dotted_headers.count() + dotted_lines.count() + ".\r\n".len()
    }

    /// A cheap stable digest for identity checks (FNV-1a over the wire
    /// form). Not cryptographic — it only needs to tell "same spam task"
    /// from "different spam task".
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_wire().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// The header section, blank line and body with CRLF endings (no
    /// dot-stuffing; see [`crate::dot_stuff`]), rendered on first use.
    pub fn to_wire(&self) -> &str {
        self.inner.wire.get_or_init(|| self.render())
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.headers() {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        for line in self.body().split('\n') {
            out.push_str(line.trim_end_matches('\r'));
            out.push_str("\r\n");
        }
        out
    }

    /// Parses a wire-form message (headers, blank line, body). Header
    /// continuation lines are not supported — the suite never folds.
    ///
    /// Returns `None` if no blank separator line exists or a header lacks a
    /// colon.
    pub fn from_wire(s: &str) -> Option<Self> {
        let mut headers = Vec::new();
        let mut rest = s;
        loop {
            let (line, tail) = match rest.split_once("\r\n") {
                Some((line, tail)) => (line, Some(tail)),
                None => (rest, None),
            };
            if line.is_empty() {
                // The body is everything after the blank line, without the
                // trailing CRLFs the serializer adds, with LF line ends.
                let body = tail.unwrap_or_default().trim_end_matches("\r\n");
                return Some(Message::new(headers, body.replace("\r\n", "\n")));
            }
            let (name, value) = line.split_once(':')?;
            headers.push((name.trim().to_owned(), value.trim().to_owned()));
            rest = tail?;
        }
    }
}

impl PartialEq for Message {
    /// Headers and body; whether the wire form was rendered yet does not
    /// count.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.headers() == other.headers() && self.body() == other.body())
    }
}

impl Eq for Message {}

impl Hash for Message {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.headers().hash(state);
        self.body().hash(state);
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("headers", &self.headers())
            .field("body", &self.body())
            .finish()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<message {} headers, {} body bytes, digest {:016x}>",
            self.headers().len(),
            self.body().len(),
            self.digest()
        )
    }
}

/// Builder for [`Message`].
#[derive(Debug, Default)]
pub struct MessageBuilder {
    headers: Vec<(String, String)>,
    body: String,
}

impl MessageBuilder {
    /// Appends a header; an owned `String` value is moved in, not copied.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_owned(), value.into()));
        self
    }

    /// Sets the body.
    pub fn body(mut self, body: &str) -> Self {
        self.body = body.to_owned();
        self
    }

    /// Finishes the message.
    pub fn build(self) -> Message {
        Message::new(self.headers, self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Message {
        Message::builder()
            .header("From", "a@b.cc")
            .header("To", "x@y.zz")
            .header("Subject", "hello")
            .body("line one\nline two")
            .build()
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let m = sample();
        assert_eq!(m.header("subject"), Some("hello"));
        assert_eq!(m.header("SUBJECT"), Some("hello"));
        assert_eq!(m.header("missing"), None);
    }

    #[test]
    fn wire_roundtrip() {
        let m = sample();
        let wire = m.to_wire();
        assert!(wire.contains("Subject: hello\r\n"));
        assert!(wire.contains("\r\n\r\n"));
        let parsed = Message::from_wire(wire).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn digest_distinguishes_content() {
        let m1 = sample();
        let m2 = Message::builder().header("Subject", "different").body("x").build();
        assert_ne!(m1.digest(), m2.digest());
        assert_eq!(m1.digest(), sample().digest());
    }

    #[test]
    fn from_wire_rejects_malformed() {
        assert_eq!(Message::from_wire("no blank line"), None);
        assert_eq!(Message::from_wire("not a header\r\n\r\nbody"), None);
    }

    #[test]
    fn empty_body_roundtrip() {
        let m = Message::builder().header("Subject", "s").body("").build();
        let parsed = Message::from_wire(m.to_wire()).unwrap();
        assert_eq!(parsed.body(), "");
    }

    /// The DATA round trip the simulator's handover stands in for:
    /// render, dot-stuff, unstuff, parse.
    fn data_round_trip(m: &Message) -> Option<Message> {
        Message::from_wire(&crate::dot_unstuff(&crate::dot_stuff(m.to_wire()))?)
    }

    #[test]
    fn round_trip_scan_admits_plain_messages_and_refuses_the_rest() {
        let plain = [
            Message::builder().header("Subject", "message 7").body("benign mail body").build(),
            Message::builder().body("").build(),
            Message::builder().header(".Dotted", "a: b").body(".leading\n..two\n\nend").build(),
            Message::builder().header("", "").body("x").build(),
        ];
        for m in &plain {
            assert!(m.wire_round_trips(), "{m:?}");
            assert_eq!(data_round_trip(m).as_ref(), Some(m));
        }
        let refused = [
            Message::builder().body("ends in a line feed\n").build(),
            Message::builder().body("carriage\r\nreturn").build(),
            Message::builder().header("Subject", "  padded").body("x").build(),
            Message::builder().header("Subject", "trailing ").body("x").build(),
            Message::builder().header(" Subject", "x").body("x").build(),
            Message::builder().header("Sub:ject", "x").body("x").build(),
            Message::builder().header("Subject", "two\nlines").body("x").build(),
            Message::builder().header("Subject", "cr\rinside").body("x").build(),
        ];
        for m in &refused {
            assert!(!m.wire_round_trips(), "{m:?}");
        }
        // The first four of these really come back changed.
        for m in &refused[..4] {
            assert_ne!(data_round_trip(m).as_ref(), Some(m));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The handover's soundness: a message the scan admits comes back
        /// from the DATA round trip unchanged, and the lengths counted
        /// without rendering equal the rendered ones (the wire form's for
        /// every message).
        #[test]
        fn prop_round_trip_scan_is_sound(
            names in proptest::collection::vec("[A-Za-z.-]{0,5}|[ .:A-Za-z\r\n]{0,4}", 0..3),
            values in proptest::collection::vec("[a-z0-9:@.]{0,8}|[ a-z:\r\n]{0,6}", 3),
            lines in proptest::collection::vec("\\.{0,2}[a-z .:]{0,6}|[a-z\r]{0,3}", 0..4),
            tail in "|\n|\r|\r\n",
        ) {
            let mut builder = Message::builder();
            for (name, value) in names.iter().zip(&values) {
                builder = builder.header(name, value.as_str());
            }
            let m = builder.body(&format!("{}{tail}", lines.join("\n"))).build();
            let (size, stuffed) = (m.size(), m.stuffed_len());
            prop_assert_eq!(size, m.to_wire().len());
            if m.wire_round_trips() {
                prop_assert_eq!(data_round_trip(&m), Some(m.clone()));
                let wire = crate::dot_stuff(m.to_wire());
                prop_assert_eq!(stuffed, wire.len());
                prop_assert_eq!(size - 2, crate::dot_unstuff(&wire).unwrap().len());
            }
        }

        #[test]
        fn prop_roundtrip(subject in "[ -~]{0,30}", body in "[a-zA-Z0-9 ]{0,80}") {
            // Header values must not contain ':' confusion — any printable
            // is fine for values; parser splits on first ':' of each line.
            let m = Message::builder().header("Subject", subject.trim()).body(&body).build();
            let parsed = Message::from_wire(m.to_wire()).unwrap();
            prop_assert_eq!(parsed.body(), m.body());
        }
    }
}

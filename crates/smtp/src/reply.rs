//! SMTP replies.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// Named SMTP reply codes (RFC 5321 §4.2.3).
///
/// Lint rule P2 requires every `Reply::new` / `Reply::single` call site
/// outside this module to name its code through these constants, so a
/// grep for a constant finds every protocol decision that emits it.
pub mod codes {
    /// `220` — service ready.
    pub const SERVICE_READY: u16 = 220;
    /// `221` — closing transmission channel.
    pub const CLOSING: u16 = 221;
    /// `250` — requested action completed.
    pub const OK: u16 = 250;
    /// `252` — cannot VRFY user, but will accept the message.
    pub const CANNOT_VRFY: u16 = 252;
    /// `354` — start mail input.
    pub const START_MAIL_INPUT: u16 = 354;
    /// `421` — service not available, closing channel.
    pub const SERVICE_NOT_AVAILABLE: u16 = 421;
    /// `450` — mailbox unavailable (transient); the greylisting reply.
    pub const MAILBOX_UNAVAILABLE_TRANSIENT: u16 = 450;
    /// `454` — TLS not available due to temporary reason.
    pub const TLS_NOT_AVAILABLE: u16 = 454;
    /// `500` — command unrecognized.
    pub const UNRECOGNIZED: u16 = 500;
    /// `501` — syntax error in parameters.
    pub const BAD_SYNTAX: u16 = 501;
    /// `502` — command not implemented.
    pub const NOT_IMPLEMENTED: u16 = 502;
    /// `503` — bad sequence of commands.
    pub const BAD_SEQUENCE: u16 = 503;
    /// `552` — exceeded storage allocation (message size limit).
    pub const SIZE_EXCEEDED: u16 = 552;
    /// `550` — mailbox unavailable (permanent).
    pub const MAILBOX_UNAVAILABLE: u16 = 550;
    /// `554` — transaction failed.
    pub const TRANSACTION_FAILED: u16 = 554;
}

/// The coarse class of a reply code (its first digit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyCategory {
    /// 2yz — the requested action completed.
    PositiveCompletion,
    /// 3yz — more input expected (e.g. 354 after DATA).
    PositiveIntermediate,
    /// 4yz — transient failure; the client should retry later. Greylisting
    /// lives entirely in this class.
    TransientNegative,
    /// 5yz — permanent failure; the client must not retry.
    PermanentNegative,
}

/// A server reply: a three-digit code and one or more text lines.
///
/// Lines are `Cow<'static, str>`: the fixed replies (`250 OK`, the 5xx
/// errors, every `Reply::single(code, "literal")`) borrow their text and
/// allocate nothing, and only text that varies per session (a host name,
/// a retry hint, `SIZE n`) is formatted.
///
/// # Example
///
/// ```
/// use spamward_smtp::Reply;
/// let r = Reply::greylisted(300);
/// assert_eq!(r.code(), 450);
/// assert!(r.is_transient());
/// assert!(r.to_wire().starts_with("450 "));
/// ```
#[derive(Clone)]
pub struct Reply {
    code: u16,
    lines: Lines,
}

/// A reply's text lines: a single line is held inline, so a one-line reply
/// with `'static` text is built without touching the heap.
#[derive(Clone)]
enum Lines {
    One(Cow<'static, str>),
    Many(Vec<Cow<'static, str>>),
}

impl Reply {
    /// Creates a reply.
    ///
    /// # Panics
    ///
    /// Panics if `code` is outside `200..=599` or `lines` is empty.
    pub fn new(code: u16, lines: Vec<Cow<'static, str>>) -> Self {
        assert!((200..=599).contains(&code), "SMTP reply code {code} out of range");
        assert!(!lines.is_empty(), "a reply needs at least one text line");
        Reply { code, lines: Lines::Many(lines) }
    }

    /// Creates a single-line reply; a `&'static str` text is borrowed, not
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics if `code` is outside `200..=599`.
    pub fn single(code: u16, text: impl Into<Cow<'static, str>>) -> Self {
        assert!((200..=599).contains(&code), "SMTP reply code {code} out of range");
        Reply { code, lines: Lines::One(text.into()) }
    }

    // --- Standard replies used across the suite ---

    /// `220` service-ready banner.
    pub fn banner(hostname: &str) -> Self {
        Reply::single(220, format!("{hostname} ESMTP spamward"))
    }

    /// `250` greeting after HELO/EHLO.
    pub fn hello(hostname: &str, peer: &str) -> Self {
        Reply::single(250, format!("{hostname} Hello {peer}, I am glad to meet you"))
    }

    /// `250 OK`.
    pub fn ok() -> Self {
        Reply::single(250, "OK")
    }

    /// `354` start-mail-input.
    pub fn start_mail_input() -> Self {
        Reply::single(354, "End data with <CR><LF>.<CR><LF>")
    }

    /// `450` greylisting rejection, in Postgrey's wording.
    pub fn greylisted(retry_after_secs: u64) -> Self {
        Reply::single(
            450,
            format!("4.2.0 Greylisted, see http://postgrey.schweikert.ch/ (retry in {retry_after_secs}s)"),
        )
    }

    /// `421` service-not-available (server shutting down the channel).
    pub fn service_unavailable(hostname: &str) -> Self {
        Reply::single(
            421,
            format!("{hostname} Service not available, closing transmission channel"),
        )
    }

    /// `550` mailbox unavailable (unknown recipient).
    pub fn no_such_user() -> Self {
        Reply::single(550, "5.1.1 No such user here")
    }

    /// `550` policy rejection (e.g. DNSBL hit).
    pub fn rejected_policy(reason: &str) -> Self {
        Reply::single(550, format!("5.7.1 {reason}"))
    }

    /// `221` closing reply to QUIT.
    pub fn bye(hostname: &str) -> Self {
        Reply::single(221, format!("{hostname} Service closing transmission channel"))
    }

    /// `500` unrecognized command.
    pub fn unrecognized() -> Self {
        Reply::single(500, "5.5.2 Error: command not recognized")
    }

    /// `503` bad sequence of commands.
    pub fn bad_sequence() -> Self {
        Reply::single(503, "5.5.1 Error: bad sequence of commands")
    }

    /// `501` syntax error in parameters.
    pub fn bad_syntax() -> Self {
        Reply::single(501, "5.5.4 Error: syntax error in parameters")
    }

    /// `252` cannot-verify reply to VRFY.
    pub fn cannot_verify() -> Self {
        Reply::single(252, "2.1.5 Cannot VRFY user, but will accept message")
    }

    /// The numeric code.
    pub fn code(&self) -> u16 {
        self.code
    }

    /// The text lines.
    pub fn lines(&self) -> &[Cow<'static, str>] {
        match &self.lines {
            Lines::One(line) => std::slice::from_ref(line),
            Lines::Many(lines) => lines,
        }
    }

    /// The reply's class.
    pub fn category(&self) -> ReplyCategory {
        match self.code / 100 {
            2 => ReplyCategory::PositiveCompletion,
            3 => ReplyCategory::PositiveIntermediate,
            4 => ReplyCategory::TransientNegative,
            _ => ReplyCategory::PermanentNegative,
        }
    }

    /// Whether the request succeeded (2yz).
    pub fn is_positive(&self) -> bool {
        self.category() == ReplyCategory::PositiveCompletion
    }

    /// Whether more input is expected (3yz).
    pub fn is_intermediate(&self) -> bool {
        self.category() == ReplyCategory::PositiveIntermediate
    }

    /// Whether the failure is transient (4yz) — the retry-later signal
    /// greylisting relies on.
    pub fn is_transient(&self) -> bool {
        self.category() == ReplyCategory::TransientNegative
    }

    /// Whether the failure is permanent (5yz).
    pub fn is_permanent(&self) -> bool {
        self.category() == ReplyCategory::PermanentNegative
    }

    /// Serializes to wire form, `XYZ-text` continuation lines and a final
    /// `XYZ text` line, CRLF-terminated.
    pub fn to_wire(&self) -> String {
        let lines = self.lines();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 6).sum());
        for (i, line) in lines.iter().enumerate() {
            let sep = if i + 1 == lines.len() { ' ' } else { '-' };
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{}{sep}{line}\r\n", self.code);
        }
        out
    }

    /// Parses a (possibly multi-line) wire-form reply.
    ///
    /// A line is a three-digit code, then `-` and text on a continuation
    /// line, or an optional space and text on the final line (RFC 5321
    /// §4.2: `Reply-code [ SP textstring ] CRLF`, so a bare `250` is a
    /// final line with empty text).
    ///
    /// Returns `None` on malformed input, never panics.
    pub fn from_wire(s: &str) -> Option<Self> {
        let mut code: Option<u16> = None;
        let mut lines = Vec::new();
        let mut terminated = false;
        for raw in s.split("\r\n").filter(|l| !l.is_empty()) {
            if terminated {
                return None; // text after the final line
            }
            let c: u16 = raw.get(..3)?.parse().ok()?;
            if !(200..=599).contains(&c) {
                return None;
            }
            match code {
                None => code = Some(c),
                Some(prev) if prev != c => return None,
                _ => {}
            }
            // Bytes 0..3 are ASCII digits here, so byte 3 starts a char.
            let text = match raw.as_bytes().get(3) {
                None => {
                    terminated = true;
                    ""
                }
                Some(b' ') => {
                    terminated = true;
                    raw.get(4..)?
                }
                Some(b'-') => raw.get(4..)?,
                Some(_) => return None,
            };
            lines.push(Cow::Owned(text.to_owned()));
        }
        if !terminated || lines.is_empty() {
            return None;
        }
        Some(Reply::new(code?, lines))
    }
}

impl PartialEq for Reply {
    fn eq(&self, other: &Self) -> bool {
        self.code == other.code && self.lines() == other.lines()
    }
}

impl Eq for Reply {}

impl Hash for Reply {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.code.hash(state);
        self.lines().hash(state);
    }
}

impl fmt::Debug for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reply").field("code", &self.code).field("lines", &self.lines()).finish()
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code)?;
        for (i, line) in self.lines().iter().enumerate() {
            f.write_str(if i == 0 { " " } else { " / " })?;
            f.write_str(line)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn categories() {
        assert!(Reply::ok().is_positive());
        assert!(Reply::start_mail_input().is_intermediate());
        assert!(Reply::greylisted(300).is_transient());
        assert!(Reply::no_such_user().is_permanent());
        assert_eq!(Reply::single(421, "x").category(), ReplyCategory::TransientNegative);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_code() {
        let _ = Reply::single(199, "nope");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_lines() {
        let _ = Reply::new(250, vec![]);
    }

    #[test]
    fn single_line_wire_roundtrip() {
        let r = Reply::ok();
        assert_eq!(r.to_wire(), "250 OK\r\n");
        assert_eq!(Reply::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn multi_line_wire_roundtrip() {
        let r = Reply::new(250, vec!["first".into(), "second".into(), "third".into()]);
        let wire = r.to_wire();
        assert!(wire.starts_with("250-first\r\n250-second\r\n250 third"));
        assert_eq!(Reply::from_wire(&wire).unwrap(), r);
    }

    #[test]
    fn from_wire_rejects_malformed() {
        assert_eq!(Reply::from_wire(""), None);
        assert_eq!(Reply::from_wire("abc hello\r\n"), None);
        assert_eq!(Reply::from_wire("250-never terminated\r\n"), None);
        assert_eq!(Reply::from_wire("250 ok\r\n251 mixed\r\n"), None);
        assert_eq!(Reply::from_wire("999 out of range\r\n"), None);
        assert_eq!(Reply::from_wire("250 ok\r\ntrailing\r\n"), None);
    }

    #[test]
    fn from_wire_rejects_a_non_ascii_code_or_separator_without_panicking() {
        // `é` straddles byte 4 and byte 3 respectively.
        assert_eq!(Reply::from_wire("250é\r\n"), None);
        assert_eq!(Reply::from_wire("25é\r\n"), None);
        assert_eq!(Reply::from_wire("250-ok\r\n25é\r\n"), None);
    }

    #[test]
    fn from_wire_accepts_a_bare_code_as_the_final_line() {
        let r = Reply::from_wire("250\r\n").unwrap();
        assert_eq!(r.code(), 250);
        assert_eq!(r.lines(), [""]);
        let r = Reply::from_wire("250-first\r\n250\r\n").unwrap();
        assert_eq!(r.lines(), ["first", ""]);
        assert_eq!(Reply::from_wire("250\r\n250 more\r\n"), None);
    }

    #[test]
    fn fixed_replies_borrow_their_text() {
        for r in [
            Reply::ok(),
            Reply::start_mail_input(),
            Reply::no_such_user(),
            Reply::unrecognized(),
            Reply::bad_sequence(),
            Reply::bad_syntax(),
            Reply::cannot_verify(),
            Reply::single(codes::OK, "2.0.0 OK: queued"),
        ] {
            assert!(matches!(r.lines, Lines::One(Cow::Borrowed(_))), "{r:?}");
        }
        assert!(matches!(Reply::banner("mx").lines, Lines::One(Cow::Owned(_))));
    }

    #[test]
    fn greylist_reply_carries_retry_hint() {
        let r = Reply::greylisted(300);
        assert!(r.lines()[0].contains("300s"));
    }

    proptest! {
        #[test]
        fn prop_wire_roundtrip(code in 200u16..=599, n in 1usize..4) {
            let lines = (0..n).map(|i| format!("line {i}").into()).collect();
            let r = Reply::new(code, lines);
            prop_assert_eq!(Reply::from_wire(&r.to_wire()).unwrap(), r);
        }

        /// Hostile input: arbitrary UTF-8 lines, multi-byte characters
        /// included at every offset, parse or are refused, never panic.
        #[test]
        fn prop_from_wire_never_panics_on_utf8_lines(
            lines in proptest::collection::vec("[2-5]{0,3}[0-9 é€😀-]{0,2}[ -~é€😀]{0,5}", 1..4),
            crlf in proptest::bool::ANY,
        ) {
            let mut wire = lines.join("\r\n");
            if crlf {
                wire.push_str("\r\n");
            }
            if let Some(r) = Reply::from_wire(&wire) {
                prop_assert!((200..=599).contains(&r.code()));
                prop_assert_eq!(Reply::from_wire(&r.to_wire()), Some(r));
            }
        }
    }
}

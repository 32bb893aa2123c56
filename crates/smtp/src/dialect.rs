//! SMTP client dialects.
//!
//! Stringhini et al. (B@bel, USENIX Security 2012) showed that the small
//! deviations in how a client speaks SMTP — HELO vs EHLO, what it puts in
//! the greeting, whether it bothers to QUIT — fingerprint the software, and
//! the paper builds on that observation: fire-and-forget bots implement
//! "part of the message delivery protocol in custom ways". A [`Dialect`]
//! captures those session-level choices; retry behaviour (the axis
//! greylisting tests) lives one layer up, in the sending MTA / bot models.

use std::fmt;

/// What a client presents as its HELO/EHLO argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HeloStyle {
    /// Its own (claimed) fully-qualified domain name.
    OwnFqdn(String),
    /// A bare address literal like `[203.0.113.9]` — common in bots.
    AddressLiteral,
    /// A hardcoded string shipped in the malware binary.
    Fixed(String),
}

/// Session-level protocol personality of a sending client.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dialect {
    /// Human-readable name ("postfix", "cutwail", ...).
    pub name: String,
    /// `true` → opens with EHLO, falling back to HELO on 5xx; `false` →
    /// HELO only (old or minimal implementations).
    pub uses_ehlo: bool,
    /// What goes after the greeting verb.
    pub helo_style: HeloStyle,
    /// Whether the client politely QUITs after a failed transaction.
    /// Fire-and-forget bots typically just drop the connection.
    pub quits_on_failure: bool,
    /// Whether a transient error on the *first* RCPT aborts the whole
    /// transaction immediately (bots privileging volume over delivery)
    /// instead of trying the remaining recipients.
    pub aborts_on_first_rcpt_error: bool,
    /// Whether the client issues RSET before reusing a session (compliant
    /// MTAs) — recorded for fingerprinting.
    pub resets_between_messages: bool,
    /// Whether the client waits for the 220 banner before talking.
    /// Fire-and-forget bots often blast their greeting immediately — the
    /// "early talker" signature postscreen-style filters catch.
    pub waits_for_banner: bool,
}

impl Dialect {
    /// The dialect of a well-behaved, RFC-compliant MTA.
    pub fn compliant_mta(fqdn: &str) -> Self {
        Dialect {
            name: "compliant-mta".into(),
            uses_ehlo: true,
            helo_style: HeloStyle::OwnFqdn(fqdn.to_owned()),
            quits_on_failure: true,
            aborts_on_first_rcpt_error: false,
            resets_between_messages: true,
            waits_for_banner: true,
        }
    }

    /// A minimal fire-and-forget bot dialect.
    pub fn minimal_bot(name: &str) -> Self {
        Dialect {
            name: name.to_owned(),
            uses_ehlo: false,
            helo_style: HeloStyle::AddressLiteral,
            quits_on_failure: false,
            aborts_on_first_rcpt_error: true,
            resets_between_messages: false,
            waits_for_banner: false,
        }
    }

    /// The greeting argument for a client at `ip`.
    pub fn helo_argument(&self, ip: std::net::Ipv4Addr) -> String {
        match &self.helo_style {
            HeloStyle::OwnFqdn(fqdn) => fqdn.clone(),
            HeloStyle::AddressLiteral => format!("[{ip}]"),
            HeloStyle::Fixed(s) => s.clone(),
        }
    }

    /// The coarse feature vector used to fingerprint a session transcript.
    pub fn fingerprint(&self) -> DialectFingerprint {
        DialectFingerprint {
            greets_with_ehlo: self.uses_ehlo,
            helo_is_literal: matches!(self.helo_style, HeloStyle::AddressLiteral),
            quits_politely: self.quits_on_failure,
            retries_remaining_rcpts: !self.aborts_on_first_rcpt_error,
            early_talker: !self.waits_for_banner,
        }
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// A coarse behavioural fingerprint, comparable across observed sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DialectFingerprint {
    /// Opens with EHLO rather than HELO.
    pub greets_with_ehlo: bool,
    /// Greeting argument is an address literal.
    pub helo_is_literal: bool,
    /// Sends QUIT even after failures.
    pub quits_politely: bool,
    /// Continues with remaining recipients after a RCPT error.
    pub retries_remaining_rcpts: bool,
    /// Talks before the banner arrives.
    pub early_talker: bool,
}

impl DialectFingerprint {
    /// Whether this looks like full MTA software rather than a bot routine
    /// (heuristic: EHLO + polite QUIT + waits its turn).
    pub fn looks_like_mta(self) -> bool {
        self.greets_with_ehlo && self.quits_politely && !self.helo_is_literal && !self.early_talker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn compliant_and_bot_presets_differ() {
        let mta = Dialect::compliant_mta("mail.example.org");
        let bot = Dialect::minimal_bot("cutwail");
        assert!(mta.uses_ehlo && !bot.uses_ehlo);
        assert!(mta.fingerprint().looks_like_mta());
        assert!(!bot.fingerprint().looks_like_mta());
    }

    #[test]
    fn helo_argument_styles() {
        let ip = Ipv4Addr::new(203, 0, 113, 9);
        assert_eq!(Dialect::compliant_mta("m.example").helo_argument(ip), "m.example");
        assert_eq!(Dialect::minimal_bot("x").helo_argument(ip), "[203.0.113.9]");
        let fixed = Dialect {
            helo_style: HeloStyle::Fixed("localhost".into()),
            ..Dialect::minimal_bot("y")
        };
        assert_eq!(fixed.helo_argument(ip), "localhost");
    }
}

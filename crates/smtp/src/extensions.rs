//! ESMTP service extensions (RFC 1869 / 5321 §4.1.1.1).
//!
//! The experiments don't need TLS or 8-bit transport, but the *presence*
//! of extension negotiation matters twice over: capability lines are part
//! of the dialect surface that fingerprints senders, and the SIZE
//! extension gives the receiving MTA its first pre-acceptance rejection
//! point (an oversized MAIL FROM dies before any body is transferred).

use std::borrow::Cow;

/// The extension set a server advertises in its EHLO response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// Maximum accepted message size in bytes; advertised as `SIZE n` and
    /// enforced against both the `MAIL FROM ... SIZE=` declaration and the
    /// actual body. `None` disables the extension.
    pub size_limit: Option<u64>,
    /// Advertise `PIPELINING`.
    pub pipelining: bool,
    /// Advertise `STARTTLS` (negotiation itself is stubbed: accepting it
    /// returns 454 so sessions continue in the clear).
    pub starttls: bool,
    /// Advertise `8BITMIME`.
    pub eight_bit_mime: bool,
    /// Advertise `ENHANCEDSTATUSCODES`.
    pub enhanced_status: bool,
}

impl Default for Capabilities {
    /// A Postfix-like default: 10 MiB SIZE, PIPELINING, 8BITMIME and
    /// enhanced status codes; no STARTTLS.
    fn default() -> Self {
        Capabilities {
            size_limit: Some(10 * 1024 * 1024),
            pipelining: true,
            starttls: false,
            eight_bit_mime: true,
            enhanced_status: true,
        }
    }
}

impl Capabilities {
    /// A minimal server advertising nothing (HELO-era behaviour).
    pub fn none() -> Self {
        Capabilities {
            size_limit: None,
            pipelining: false,
            starttls: false,
            eight_bit_mime: false,
            enhanced_status: false,
        }
    }

    /// The EHLO continuation lines (everything after the greeting line);
    /// only `SIZE n` is formatted.
    pub fn ehlo_lines(&self) -> Vec<Cow<'static, str>> {
        let mut lines = Vec::new();
        if self.pipelining {
            lines.push("PIPELINING".into());
        }
        if let Some(limit) = self.size_limit {
            lines.push(format!("SIZE {limit}").into());
        }
        if self.eight_bit_mime {
            lines.push("8BITMIME".into());
        }
        if self.starttls {
            lines.push("STARTTLS".into());
        }
        if self.enhanced_status {
            lines.push("ENHANCEDSTATUSCODES".into());
        }
        lines
    }

    /// Parses capability lines back from an EHLO reply (the client side of
    /// negotiation; also used by fingerprinting). Keywords match in any
    /// case, and nothing is copied to compare them.
    pub fn from_ehlo_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Self {
        let mut caps = Capabilities::none();
        for line in lines {
            let line = line.trim();
            if line.eq_ignore_ascii_case("PIPELINING") {
                caps.pipelining = true;
            } else if line.eq_ignore_ascii_case("8BITMIME") {
                caps.eight_bit_mime = true;
            } else if line.eq_ignore_ascii_case("STARTTLS") {
                caps.starttls = true;
            } else if line.eq_ignore_ascii_case("ENHANCEDSTATUSCODES") {
                caps.enhanced_status = true;
            } else if line.get(..4).is_some_and(|keyword| keyword.eq_ignore_ascii_case("SIZE")) {
                caps.size_limit = line.get(4..).and_then(|rest| rest.trim().parse().ok());
            }
        }
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_advertises_postfix_like_set() {
        let caps = Capabilities::default();
        let lines = caps.ehlo_lines();
        assert!(lines.contains(&"PIPELINING".into()));
        assert!(lines.iter().any(|l| l.starts_with("SIZE ")));
        assert!(lines.contains(&"8BITMIME".into()));
        assert!(!lines.contains(&"STARTTLS".into()));
        assert!(lines.iter().all(|l| matches!(l, Cow::Borrowed(_)) || l.starts_with("SIZE ")));
    }

    #[test]
    fn none_advertises_nothing() {
        assert!(Capabilities::none().ehlo_lines().is_empty());
    }

    #[test]
    fn roundtrip_through_ehlo_lines() {
        let caps = Capabilities {
            size_limit: Some(5_000_000),
            pipelining: true,
            starttls: true,
            eight_bit_mime: false,
            enhanced_status: true,
        };
        let lines = caps.ehlo_lines();
        let parsed = Capabilities::from_ehlo_lines(lines.iter().map(|l| &**l));
        assert_eq!(parsed, caps);
    }

    #[test]
    fn parse_tolerates_case_and_unknowns() {
        let caps = Capabilities::from_ehlo_lines(vec!["pipelining", "size 1234", "X-UNKNOWN foo"]);
        assert!(caps.pipelining);
        assert_eq!(caps.size_limit, Some(1234));
        assert!(!caps.starttls);
    }

    #[test]
    fn malformed_size_ignored() {
        let caps = Capabilities::from_ehlo_lines(vec!["SIZE notanumber"]);
        assert_eq!(caps.size_limit, None);
    }

    #[test]
    fn keywords_match_in_any_case_and_odd_lines_are_ignored() {
        let caps = Capabilities::from_ehlo_lines(vec![
            " 8bitMime ",
            "StartTls",
            "enhancedstatuscodes",
            "sIzE",
            "Siz\u{e9} 10",
            "\u{e9}",
        ]);
        assert!(caps.eight_bit_mime && caps.starttls && caps.enhanced_status);
        assert!(!caps.pipelining);
        assert_eq!(caps.size_limit, None, "a bare SIZE keyword declares no limit");
        let caps = Capabilities::from_ehlo_lines(vec!["size  2048 ", "PIPELINING-X"]);
        assert_eq!(caps.size_limit, Some(2048));
        assert!(!caps.pipelining);
    }
}

//! SMTP commands.

use crate::address::{EmailAddress, ReversePath};
use std::fmt;
use std::sync::Arc;

/// A client command as defined by RFC 5321 §4.1 (the subset mail delivery
/// exercises), plus an `Unknown` catch-all so sloppy bot dialects can be
/// represented and fingerprinted rather than rejected at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `HELO <domain>` — old-style greeting.
    Helo {
        /// The name the client claims, shared with the dialect that sent
        /// it and the server transaction that records it.
        domain: Arc<str>,
    },
    /// `EHLO <domain>` — extended greeting.
    Ehlo {
        /// The name the client claims, shared like [`Command::Helo`]'s.
        domain: Arc<str>,
    },
    /// `MAIL FROM:<reverse-path> [SIZE=n]`.
    MailFrom {
        /// The envelope sender (null path for bounces).
        path: ReversePath,
        /// The RFC 1870 `SIZE=` declaration, when present.
        declared_size: Option<u64>,
    },
    /// `RCPT TO:<forward-path>`.
    RcptTo {
        /// The envelope recipient.
        address: EmailAddress,
    },
    /// `DATA`.
    Data,
    /// `RSET`.
    Rset,
    /// `NOOP`.
    Noop,
    /// `QUIT`.
    Quit,
    /// `VRFY <string>`.
    Vrfy {
        /// The mailbox being probed.
        target: String,
    },
    /// `STARTTLS` (the suite only records it; no TLS is simulated).
    StartTls,
    /// Anything unparseable — kept verbatim for dialect fingerprinting.
    Unknown {
        /// The raw line as received.
        raw: String,
    },
}

impl Command {
    /// Parses one CRLF-stripped command line.
    ///
    /// Never fails: unparseable input becomes [`Command::Unknown`], because
    /// the *server* decides how to answer junk (and the dialect fingerprint
    /// wants to see it).
    pub fn parse(line: &str) -> Command {
        let trimmed = line.trim_end_matches(['\r', '\n']);
        let upper = trimmed.to_ascii_uppercase();
        let arg = |prefix: &str| trimmed[prefix.len()..].trim();

        if upper.starts_with("HELO ") {
            return Command::Helo { domain: arg("HELO ").into() };
        }
        if upper == "HELO" {
            return Command::Helo { domain: Arc::default() };
        }
        if upper.starts_with("EHLO ") {
            return Command::Ehlo { domain: arg("EHLO ").into() };
        }
        if upper == "EHLO" {
            return Command::Ehlo { domain: Arc::default() };
        }
        if let Some(rest) = strip_prefix_ci(trimmed, "MAIL FROM:") {
            let rest = rest.trim();
            // Split the path from optional ESMTP parameters (RFC 1870's
            // SIZE=, RFC 6152's BODY=, ...).
            let (path_part, params) = match rest.split_once(char::is_whitespace) {
                Some((p, rest_params)) => (p, rest_params),
                None => (rest, ""),
            };
            let mut declared_size = None;
            for param in params.split_whitespace() {
                if let Some(value) = strip_prefix_ci(param, "SIZE=") {
                    declared_size = value.parse().ok();
                }
            }
            return match ReversePath::parse(path_part) {
                Ok(path) => Command::MailFrom { path, declared_size },
                Err(_) => Command::Unknown { raw: trimmed.to_owned() },
            };
        }
        if let Some(rest) = strip_prefix_ci(trimmed, "RCPT TO:") {
            return match EmailAddress::parse(rest.trim()) {
                Ok(address) => Command::RcptTo { address },
                Err(_) => Command::Unknown { raw: trimmed.to_owned() },
            };
        }
        match upper.as_str() {
            "DATA" => Command::Data,
            "RSET" => Command::Rset,
            "NOOP" => Command::Noop,
            "QUIT" => Command::Quit,
            "STARTTLS" => Command::StartTls,
            _ if upper.starts_with("VRFY ") => Command::Vrfy { target: arg("VRFY ").to_owned() },
            _ => Command::Unknown { raw: trimmed.to_owned() },
        }
    }

    /// Serializes to one CRLF-terminated wire line.
    pub fn to_wire(&self) -> String {
        match self {
            Command::Helo { domain } => format!("HELO {domain}\r\n"),
            Command::Ehlo { domain } => format!("EHLO {domain}\r\n"),
            Command::MailFrom { path, declared_size } => match declared_size {
                Some(n) => format!("MAIL FROM:{path} SIZE={n}\r\n"),
                None => format!("MAIL FROM:{path}\r\n"),
            },
            Command::RcptTo { address } => format!("RCPT TO:{}\r\n", address.to_path()),
            Command::Data => "DATA\r\n".to_owned(),
            Command::Rset => "RSET\r\n".to_owned(),
            Command::Noop => "NOOP\r\n".to_owned(),
            Command::Quit => "QUIT\r\n".to_owned(),
            Command::Vrfy { target } => format!("VRFY {target}\r\n"),
            Command::StartTls => "STARTTLS\r\n".to_owned(),
            Command::Unknown { raw } => format!("{raw}\r\n"),
        }
    }
}

fn strip_prefix_ci<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    let head = s.get(..prefix.len())?;
    if head.eq_ignore_ascii_case(prefix) {
        Some(&s[prefix.len()..])
    } else {
        None
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_wire().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_greetings() {
        assert_eq!(
            Command::parse("HELO local.domain.name"),
            Command::Helo { domain: "local.domain.name".into() }
        );
        assert_eq!(
            Command::parse("ehlo relay.example"),
            Command::Ehlo { domain: "relay.example".into() }
        );
        assert_eq!(Command::parse("HELO"), Command::Helo { domain: "".into() });
    }

    #[test]
    fn parses_mail_and_rcpt() {
        match Command::parse("MAIL FROM:<alice@example.com>") {
            Command::MailFrom { path, declared_size } => {
                assert_eq!(path.normalized(), "alice@example.com");
                assert_eq!(declared_size, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            Command::parse("MAIL FROM:<>"),
            Command::MailFrom { path: ReversePath::Null, declared_size: None }
        );
        match Command::parse("MAIL FROM:<a@b.cc> SIZE=12345 BODY=8BITMIME") {
            Command::MailFrom { declared_size, .. } => assert_eq!(declared_size, Some(12345)),
            other => panic!("unexpected {other:?}"),
        }
        match Command::parse("mail from:<a@b.cc> size=77") {
            Command::MailFrom { declared_size, .. } => assert_eq!(declared_size, Some(77)),
            other => panic!("unexpected {other:?}"),
        }
        match Command::parse("rcpt to:<bob@foo.net>") {
            Command::RcptTo { address } => assert_eq!(address.to_string(), "bob@foo.net"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_bare_commands_case_insensitively() {
        assert_eq!(Command::parse("data"), Command::Data);
        assert_eq!(Command::parse("QUIT"), Command::Quit);
        assert_eq!(Command::parse("Rset"), Command::Rset);
        assert_eq!(Command::parse("noop"), Command::Noop);
        assert_eq!(Command::parse("STARTTLS"), Command::StartTls);
        assert_eq!(
            Command::parse("VRFY postmaster"),
            Command::Vrfy { target: "postmaster".into() }
        );
    }

    #[test]
    fn junk_becomes_unknown() {
        assert_eq!(
            Command::parse("XYZZY nothing"),
            Command::Unknown { raw: "XYZZY nothing".into() }
        );
        assert_eq!(
            Command::parse("MAIL FROM:not-an-address"),
            Command::Unknown { raw: "MAIL FROM:not-an-address".into() }
        );
        assert_eq!(
            Command::parse("RCPT TO:<broken"),
            Command::Unknown { raw: "RCPT TO:<broken".into() }
        );
    }

    #[test]
    fn wire_roundtrip() {
        let cmds = vec![
            Command::Helo { domain: "a.b".into() },
            Command::Ehlo { domain: "a.b".into() },
            Command::MailFrom { path: ReversePath::Null, declared_size: None },
            Command::MailFrom { path: ReversePath::Null, declared_size: Some(9_000) },
            Command::MailFrom {
                path: ReversePath::Address("x@y.zz".parse().unwrap()),
                declared_size: None,
            },
            Command::RcptTo { address: "u@v.ww".parse().unwrap() },
            Command::Data,
            Command::Rset,
            Command::Noop,
            Command::Quit,
            Command::StartTls,
            Command::Vrfy { target: "root".into() },
        ];
        for c in cmds {
            let wire = c.to_wire();
            assert!(wire.ends_with("\r\n"));
            assert_eq!(Command::parse(&wire), c, "roundtrip failed for {wire:?}");
        }
    }

    proptest! {
        #[test]
        fn prop_parse_never_panics(line in "\\PC{0,60}") {
            let _ = Command::parse(&line);
        }

        #[test]
        fn prop_rcpt_roundtrip(local in "[a-z]{1,8}", dom in "[a-z]{1,8}\\.[a-z]{2,3}") {
            let addr: EmailAddress = format!("{local}@{dom}").parse().unwrap();
            let cmd = Command::RcptTo { address: addr };
            prop_assert_eq!(Command::parse(&cmd.to_wire()), cmd);
        }
    }
}
